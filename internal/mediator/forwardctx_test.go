package mediator

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

func TestForwardInfoContextRoundTrip(t *testing.T) {
	if ForwardInfoFrom(context.Background()) != nil {
		t.Error("empty context should carry no ForwardInfo")
	}
	fi := &ForwardInfo{Hops: []string{"a", "b"}}
	ctx := WithForwardInfo(context.Background(), fi)
	if got := ForwardInfoFrom(ctx); got != fi {
		t.Errorf("round trip lost the ForwardInfo: %v", got)
	}
}

// TestForwardInfoRecord: taxonomy headers from peer responses accumulate
// as duplicate-free unions, the degraded flag is sticky, and the peer's
// echoed hop path replaces (not merges) the previous one.
func TestForwardInfoRecord(t *testing.T) {
	fi := &ForwardInfo{Hops: []string{"me"}}

	h := http.Header{}
	h.Set("X-Mix-Degraded", "true")
	h.Set("X-Mix-Degraded-Sources", "s1, s2")
	h.Set("X-Mix-Pruned-Sources", "p1")
	h.Set("X-Mix-Stale-Sources", "st1")
	h.Set(ForwardHeader, "a,b")
	fi.record(h)

	h2 := http.Header{}
	h2.Set("X-Mix-Degraded-Sources", "s2,s3") // s2 already recorded
	h2.Set(ForwardHeader, " a , b , c ")
	fi.record(h2)

	p := fi.Provenance()
	if !p.Degraded {
		t.Error("degraded flag should be sticky after the first response")
	}
	if got := fmt.Sprint(p.DegradedSources); got != "[s1 s2 s3]" {
		t.Errorf("degraded sources = %s, want [s1 s2 s3]", got)
	}
	if got := fmt.Sprint(p.PrunedSources); got != "[p1]" {
		t.Errorf("pruned sources = %s", got)
	}
	if got := fmt.Sprint(p.StaleSources); got != "[st1]" {
		t.Errorf("stale sources = %s", got)
	}
	if got := fmt.Sprint(fi.Via()); got != "[a b c]" {
		t.Errorf("via = %s, want the latest echoed path [a b c]", got)
	}
}

// TestForwardInfoRecordConcurrent: hedged reads record two responses at
// once; the capture must be race-free (run under -race).
func TestForwardInfoRecordConcurrent(t *testing.T) {
	fi := &ForwardInfo{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := http.Header{}
			h.Set("X-Mix-Degraded", "true")
			h.Set("X-Mix-Stale-Sources", fmt.Sprintf("r%d", i%2))
			fi.record(h)
			_ = fi.Provenance()
		}(i)
	}
	wg.Wait()
	if got := len(fi.Provenance().StaleSources); got != 2 {
		t.Errorf("stale union has %d entries, want 2 (r0, r1)", got)
	}
}

func TestSplitAndMergeCSV(t *testing.T) {
	if got := splitCSV(" , a ,, b ,"); fmt.Sprint(got) != "[a b]" {
		t.Errorf("splitCSV = %v", got)
	}
	if got := splitCSV(""); got != nil {
		t.Errorf("splitCSV(\"\") = %v, want nil", got)
	}
	if got := mergeCSV([]string{"a"}, ""); fmt.Sprint(got) != "[a]" {
		t.Errorf("mergeCSV with empty csv = %v", got)
	}
	if got := mergeCSV([]string{"a", "b"}, "b,c,a,d"); fmt.Sprint(got) != "[a b c d]" {
		t.Errorf("mergeCSV = %v, want insertion-ordered dedupe [a b c d]", got)
	}
}
