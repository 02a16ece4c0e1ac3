package main

import (
	"fmt"
	"sort"
	"sync"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
)

// oracleWorkers is how many goroutines the oracle scan uses in prep: the
// sizing box has two cores and nothing else runs then.
const oracleWorkers = 2

// oracle computes, with the reference scan of internal/baseline, the hit set
// of every guide over the whole assembly. Result i belongs to guides[i].
func oracle(asm *genome.Assembly, guides []string, mismatches int) ([]map[hitKey]bool, error) {
	type task struct{ guide, seq int }
	tasks := make(chan task)
	sets := make([]map[hitKey]bool, len(guides))
	for i := range sets {
		sets[i] = map[hitKey]bool{}
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				seq := asm.Sequences[t.seq]
				hits, err := baseline.Search(seq.Data, []byte(pamPattern), []byte(guides[t.guide]), mismatches)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, h := range hits {
					sets[t.guide][hitKey{Guide: guides[t.guide], Seq: seq.Name, Pos: h.Pos, Dir: h.Dir, Mismatches: h.Mismatches}] = true
				}
				mu.Unlock()
			}
		}()
	}
	for g := range guides {
		for s := range asm.Sequences {
			tasks <- task{g, s}
		}
	}
	close(tasks)
	wg.Wait()
	return sets, firstErr
}

// sameHits reports how got differs from the oracle's set, or "" when they
// are the same set with no duplicates.
func sameHits(got []hitKey, want map[hitKey]bool) string {
	seen := make(map[hitKey]bool, len(got))
	for _, h := range got {
		if !want[h] {
			return fmt.Sprintf("unexpected hit %+v", h)
		}
		if seen[h] {
			return fmt.Sprintf("duplicate hit %+v", h)
		}
		seen[h] = true
	}
	if len(seen) != len(want) {
		var missing []hitKey
		for h := range want {
			if !seen[h] {
				missing = append(missing, h)
			}
		}
		sort.Slice(missing, func(i, j int) bool {
			a, b := missing[i], missing[j]
			if a.Seq != b.Seq {
				return a.Seq < b.Seq
			}
			return a.Pos < b.Pos
		})
		return fmt.Sprintf("%d of %d hits missing, first %+v", len(missing), len(want), missing[0])
	}
	return ""
}

// union merges per-guide sets into one, for an op that searches several
// guides at once.
func union(sets []map[hitKey]bool) map[hitKey]bool {
	all := map[hitKey]bool{}
	for _, s := range sets {
		for h := range s {
			all[h] = true
		}
	}
	return all
}
