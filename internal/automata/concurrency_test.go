package automata

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/regex"
)

// TestConcurrentCompilerSingleflight hammers one Compiler from many
// goroutines with a small pool of expressions and checks, via the cache
// counters, that every canonical form was compiled exactly once: under
// -race this is the proof that the compiled-automata cache is safe to sit
// under concurrent validation, inference, and tightness checking.
func TestConcurrentCompilerSingleflight(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const exprs = 24
	pool := make([]regex.Expr, exprs)
	canonical := map[string]bool{}
	for i := range pool {
		pool[i] = randExpr(r, 3)
		canonical[regex.Key(regex.Simplify(pool[i]))] = true
	}

	cp := NewCompiler(DefaultCacheCapacity)
	const workers = 16
	const perWorker = 200
	// Every worker matches every expression against words from its own
	// generator; expected results are precomputed with the derivative
	// matcher so the workers also verify answers, not just survive.
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				e := pool[wr.Intn(exprs)]
				word := randWord(wr)
				if must(cp.Match(e, word, nil)) != regex.MatchDeriv(e, word) {
					errs <- "concurrent Match diverged from the derivative matcher"
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	st := cp.Stats()
	if got := int(st.Misses); got != len(canonical) {
		t.Errorf("misses = %d, want exactly one compile per canonical form (%d)", got, len(canonical))
	}
	if st.Hits+st.Dedups+st.Misses != workers*perWorker {
		t.Errorf("hits(%d) + dedups(%d) + misses(%d) != %d calls",
			st.Hits, st.Dedups, st.Misses, workers*perWorker)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (capacity %d far exceeds %d keys)", st.Evictions, st.Capacity, len(canonical))
	}
	if st.Size != len(canonical) {
		t.Errorf("size = %d, want %d resident DFAs", st.Size, len(canonical))
	}
}

// TestConcurrentDecisionOps drives the cached decision operations
// (Contains, Equivalent, Witness, IsEmpty) from many goroutines over a
// shared pool and checks every answer against a serially precomputed
// truth table — the answers must be identical no matter which goroutine
// warmed which cache entry first.
func TestConcurrentDecisionOps(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	const exprs = 12
	pool := make([]regex.Expr, exprs)
	for i := range pool {
		pool[i] = randExpr(r, 3)
	}
	truthContains := make([][]bool, exprs)
	truthEquiv := make([][]bool, exprs)
	serial := NewCompiler(DefaultCacheCapacity)
	for i := range pool {
		truthContains[i] = make([]bool, exprs)
		truthEquiv[i] = make([]bool, exprs)
		for j := range pool {
			truthContains[i][j] = must(serial.Contains(pool[i], pool[j], nil))
			truthEquiv[i][j] = must(serial.Equivalent(pool[i], pool[j], nil))
			// The workers also ask for witnesses, which a syntactically
			// decided Contains never computes: warm them for a fair count.
			must(serial.Witness(pool[i], pool[j], nil))
		}
	}

	cp := NewCompiler(DefaultCacheCapacity)
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for n := 0; n < 150; n++ {
				i, j := wr.Intn(exprs), wr.Intn(exprs)
				if must(cp.Contains(pool[i], pool[j], nil)) != truthContains[i][j] {
					errs <- "concurrent Contains diverged from serial result"
					return
				}
				if must(cp.Equivalent(pool[i], pool[j], nil)) != truthEquiv[i][j] {
					errs <- "concurrent Equivalent diverged from serial result"
					return
				}
				if (must(cp.Witness(pool[i], pool[j], nil)) == nil) != truthContains[i][j] {
					errs <- "concurrent Witness disagrees with Contains"
					return
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := cp.Stats(); st.Misses > serial.Stats().Misses {
		t.Errorf("concurrent run compiled more entries (%d) than the serial warm-up (%d): singleflight leak",
			st.Misses, serial.Stats().Misses)
	}
}
