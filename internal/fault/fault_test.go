package fault

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Fire(SiteLaunch) {
			t.Fatal("nil injector fired")
		}
	}
	if in.Log() != nil {
		t.Error("nil injector should have an empty log")
	}
	if NewInjector(Plan{Rate: 0}) != nil {
		t.Error("zero-rate plan should build a nil injector")
	}
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 42, Rate: 0.3}
	run := func() []Event {
		in := NewInjector(plan)
		for i := 0; i < 200; i++ {
			in.Fire(SiteLaunch)
			in.Fire(SiteCLEnqueue)
			in.Fire(SiteSYCLAsync)
		}
		return in.Log()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 600 events fired nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same plan produced different logs:\n%v\nvs\n%v", a, b)
	}
	// The sites fired interleaved; the log comes back in (site, seq) order.
	if !sort.SliceIsSorted(a, func(i, j int) bool {
		if a[i].Site != a[j].Site {
			return a[i].Site < a[j].Site
		}
		return a[i].Seq < a[j].Seq
	}) {
		t.Error("log not sorted by (site, seq)")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	schedule := func(seed uint64) []Event {
		in := NewInjector(Plan{Seed: seed, Rate: 0.2})
		for i := 0; i < 300; i++ {
			in.Fire(SiteLaunch)
		}
		return in.Log()
	}
	if reflect.DeepEqual(schedule(1), schedule(2)) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestRateBounds(t *testing.T) {
	always := NewInjector(Plan{Seed: 7, Rate: 1})
	for i := 0; i < 50; i++ {
		if !always.Fire(SiteHang) {
			t.Fatal("rate 1 did not fire")
		}
	}
	// Rates above 1 clamp.
	clamped := NewInjector(Plan{Seed: 7, Rate: 2})
	if !clamped.Fire(SiteHang) {
		t.Error("rate 2 should clamp to always-fire")
	}
}

func TestRateApproximation(t *testing.T) {
	in := NewInjector(Plan{Seed: 9, Rate: 0.1})
	const n = 5000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Fire(SiteReadback) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("rate 0.1 fired %.3f of events", frac)
	}
}

func TestSiteFilter(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Rate: 1, Site: SiteCLTransfer})
	if in.Fire(SiteLaunch) || in.Fire(SiteSYCLAsync) {
		t.Error("filtered sites fired")
	}
	if !in.Fire(SiteCLTransfer) {
		t.Error("selected site did not fire at rate 1")
	}
}

func TestAfterSkipsLeadingEvents(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Rate: 1, After: 2})
	if in.Fire(SiteLaunch) || in.Fire(SiteLaunch) {
		t.Error("events before After fired")
	}
	if !in.Fire(SiteLaunch) {
		t.Error("event at After did not fire at rate 1")
	}
	log := in.Log()
	if len(log) != 1 || log[0].Seq != 2 {
		t.Errorf("log = %v, want one event with seq 2", log)
	}
}

func TestConcurrentFiringIsSafe(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, Rate: 0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Fire(SiteLaunch)
			}
		}()
	}
	wg.Wait()
	counts := make(map[Site]int)
	for _, e := range in.Log() {
		counts[e.Site]++
	}
	if counts[SiteLaunch] == 0 {
		t.Error("no events recorded under concurrency")
	}
}

func TestParseSite(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(string(s))
		if err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"gpu.meltdown", "sycl.usm"} {
		if _, err := ParseSite(s); err == nil {
			t.Errorf("unknown site %q accepted", s)
		}
	}
	if _, err := ParseSite(string(SiteWatchdog)); err == nil {
		t.Error("synthesised watchdog site should not be injectable")
	}
}

func TestClassOf(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want Class
	}{
		{New(SiteCLEnqueue, Transient, base), Transient},
		{New(SiteReadback, Corruption, base), Corruption},
		{New(SiteCLDeviceLost, Fatal, base), Fatal},
		{fmt.Errorf("wrapped: %w", New(SiteHang, Transient, base)), Transient},
		{context.DeadlineExceeded, Transient},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), Transient},
		{base, Fatal},
		{nil, Fatal},
	}
	for _, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorWrapping(t *testing.T) {
	sentinel := errors.New("opencl: enqueue failed")
	e := Errorf(SiteCLEnqueue, Transient, "launch 3: %w", sentinel)
	if !errors.Is(e, sentinel) {
		t.Error("Errorf broke the error chain")
	}
	var fe *Error
	if !errors.As(e, &fe) || fe.Site != SiteCLEnqueue {
		t.Error("errors.As failed to recover the fault error")
	}
	if s := e.Error(); s == "" || fe.Class.String() != "transient" {
		t.Errorf("bad rendering: %q / %q", s, fe.Class)
	}
}

func TestCorruptionHelpers(t *testing.T) {
	u32 := []uint32{0, 5, 100}
	corruptU32(u32)
	for i, v := range u32 {
		if v < 1<<31 {
			t.Errorf("u32[%d] = %d not driven out of range", i, v)
		}
	}
	u16 := []uint16{1}
	corruptU16(u16)
	if u16[0] != 1|1<<15 {
		t.Errorf("u16 = %d", u16[0])
	}
	b := []byte{'+'}
	CorruptBytes(b)
	if b[0] == '+' {
		t.Error("byte not corrupted")
	}
	CorruptAny(u32)
	if u32[0] != 0 {
		t.Error("CorruptAny should have flipped the MSB back")
	}
	CorruptAny([]int{1}) // unsupported type: no-op, no panic
}
