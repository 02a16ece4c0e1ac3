package search

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// marshalHitJSON is the reference encoding of one NDJSON hit line: the record
// struct and json.Marshal call the wire format was first defined by.
// AppendHitJSON must write exactly these bytes.
func marshalHitJSON(t testing.TB, req *Request, h Hit) []byte {
	rec := struct {
		Guide      string `json:"guide"`
		Query      int    `json:"query"`
		Seq        string `json:"seq"`
		Pos        int    `json:"pos"`
		Dir        string `json:"dir"`
		Mismatches int    `json:"mismatches"`
		Site       string `json:"site"`
	}{
		Guide:      req.Queries[h.QueryIndex].Guide,
		Query:      h.QueryIndex,
		Seq:        h.SeqName,
		Pos:        h.Pos,
		Dir:        string(rune(h.Dir)),
		Mismatches: h.Mismatches,
		Site:       h.Site,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(data, '\n')
}

// hitJSONCases pin the wire format with literal lines; their inputs also seed
// FuzzHitJSON.
var hitJSONCases = []struct {
	name  string
	guide string
	h     Hit
	want  string
}{
	{
		"plain minus strand", "GATTACANN",
		Hit{QueryIndex: 0, SeqName: "chr1", Pos: 42, Dir: '-', Mismatches: 1, Site: "GATtACAGG"},
		`{"guide":"GATTACANN","query":0,"seq":"chr1","pos":42,"dir":"-","mismatches":1,"site":"GATtACAGG"}` + "\n",
	},
	{
		"plain plus strand", "GGCCGACCTGTCGCTGACGCNNN",
		Hit{QueryIndex: 0, SeqName: "chrUn_KI270742v1", Pos: 248945998, Dir: '+', Mismatches: 0, Site: "GGCCGACCTGTCGCTGACGCTGG"},
		`{"guide":"GGCCGACCTGTCGCTGACGCNNN","query":0,"seq":"chrUn_KI270742v1","pos":248945998,"dir":"+","mismatches":0,"site":"GGCCGACCTGTCGCTGACGCTGG"}` + "\n",
	},
	{
		"html and quote escapes in seq", "GATTACANN",
		Hit{QueryIndex: 0, SeqName: `chr<&>"\x`, Pos: 0, Dir: '+', Mismatches: 2, Site: "GATTAcAGg"},
		`{"guide":"GATTACANN","query":0,"seq":"chr\u003c\u0026\u003e\"\\x","pos":0,"dir":"+","mismatches":2,"site":"GATTAcAGg"}` + "\n",
	},
	{
		"invalid utf-8 in site", "GATTACANN",
		Hit{QueryIndex: 0, SeqName: "chr2", Pos: 7, Dir: '-', Mismatches: 1, Site: "GAT\xffACAGG"},
		`{"guide":"GATTACANN","query":0,"seq":"chr2","pos":7,"dir":"-","mismatches":1,"site":"GAT\ufffdACAGG"}` + "\n",
	},
	{
		"control and line separators in seq", "GATTACANN",
		Hit{QueryIndex: 0, SeqName: "a\tb\u2028c\u2029\x01é", Pos: -3, Dir: 0xe9, Mismatches: -1, Site: ""},
		`{"guide":"GATTACANN","query":0,"seq":"a\tb\u2028c\u2029\u0001é","pos":-3,"dir":"é","mismatches":-1,"site":""}` + "\n",
	},
	{
		"one escape per field", `A<C`,
		Hit{QueryIndex: 1, SeqName: `c>d`, Pos: 1, Dir: '\\', Mismatches: 3, Site: `e&f`},
		`{"guide":"A\u003cC","query":1,"seq":"c\u003ed","pos":1,"dir":"\\","mismatches":3,"site":"e\u0026f"}` + "\n",
	},
	{
		"quote, backslash and control byte alone", `q"q`,
		Hit{QueryIndex: 0, SeqName: `a\b`, Pos: 10, Dir: '"', Mismatches: 4, Site: "z\x1fz"},
		`{"guide":"q\"q","query":0,"seq":"a\\b","pos":10,"dir":"\"","mismatches":4,"site":"z\u001fz"}` + "\n",
	},
}

// requestWithGuide returns a request whose query q is guide.
func requestWithGuide(q int, guide string) *Request {
	req := &Request{Queries: make([]Query, q+1)}
	req.Queries[q].Guide = guide
	return req
}

func TestAppendHitJSONLiteral(t *testing.T) {
	for _, tc := range hitJSONCases {
		t.Run(tc.name, func(t *testing.T) {
			req := requestWithGuide(tc.h.QueryIndex, tc.guide)
			if got := string(AppendHitJSON(nil, req, tc.h)); got != tc.want {
				t.Errorf("AppendHitJSON =\n%s want\n%s", got, tc.want)
			}
			if oracle := string(marshalHitJSON(t, req, tc.h)); oracle != tc.want {
				t.Errorf("json.Marshal record =\n%s want\n%s", oracle, tc.want)
			}
			var plain bytes.Buffer
			if err := WriteHitJSON(&plain, req, tc.h); err != nil || plain.String() != tc.want {
				t.Errorf("WriteHitJSON(bytes.Buffer) = %q, %v; want %q", plain.String(), err, tc.want)
			}
			// A buffer smaller than the line: the append outgrows the
			// writer's free space and the write still lands whole.
			var out bytes.Buffer
			bw := bufio.NewWriterSize(&out, 16)
			if err := WriteHitJSON(bw, req, tc.h); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil || out.String() != tc.want {
				t.Errorf("WriteHitJSON(bufio.Writer) = %q, %v; want %q", out.String(), err, tc.want)
			}
		})
	}
}

// FuzzHitJSON holds AppendHitJSON to byte equality with the json.Marshal
// record for any strings, strand byte and integers, appended after existing
// bytes and written through a small bufio.Writer.
func FuzzHitJSON(f *testing.F) {
	for _, tc := range hitJSONCases {
		h := tc.h
		f.Add(tc.guide, h.SeqName, h.Site, h.Dir, uint8(h.QueryIndex), h.Pos, h.Mismatches)
	}
	f.Add("", "", "", byte(0), uint8(255), -1<<63, 1<<63-1)
	f.Fuzz(func(t *testing.T, guide, seq, site string, dir byte, query uint8, pos, mismatches int) {
		req := requestWithGuide(int(query), guide)
		h := Hit{QueryIndex: int(query), SeqName: seq, Pos: pos, Dir: dir, Mismatches: mismatches, Site: site}
		want := marshalHitJSON(t, req, h)
		const prefix = "prefix"
		if got := AppendHitJSON([]byte(prefix), req, h); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != prefix {
			t.Fatalf("AppendHitJSON =\n%q want\n%q", got, prefix+string(want))
		}
		var out bytes.Buffer
		bw := bufio.NewWriterSize(&out, 16)
		if err := WriteHitJSON(bw, req, h); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("WriteHitJSON = %q, %v; want %q", out.Bytes(), err, want)
		}
	})
}

// TestWriteHitJSONZeroAllocs pins the daemon's and the CLI's per-hit cost: a
// plain-ASCII hit written into a bufio.Writer with room is encoded in the
// writer's own buffer and allocates nothing.
func TestWriteHitJSONZeroAllocs(t *testing.T) {
	tc := hitJSONCases[1]
	req := requestWithGuide(tc.h.QueryIndex, tc.guide)
	bw := bufio.NewWriterSize(io.Discard, 4096)
	write := func() {
		bw.Reset(io.Discard) // room for the line on every run
		if err := WriteHitJSON(bw, req, tc.h); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("WriteHitJSON allocated %.1f times per hit, want 0", allocs)
	}
}
