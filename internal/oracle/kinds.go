package oracle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/serve"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The ways a subject's sources say "unchanged" (Subject.Kind).
const (
	KindTagged   = "tagged"   // HTTPSources on the origin: a 304 to the version's tag
	KindUntagged = "untagged" // HTTPSources on the origin's untagged routes: the same bytes
	KindStacked  = "stacked"  // HTTPSources on a lower mediator's views of the origin: its 304
	KindGuarded  = "guarded"  // in-memory wrappers behind a breaker or in a replica set: the same *Document
)

// wrappers are the sources of a subject of s's kind. A tagged subject reaches
// the origin over a socket, the others in memory (network). A guarded
// subject's wrap the fleet's sources in turn in a breaker, a replica set of
// two and nothing, on a clock of their own; with seed > 0 those under the
// breaker and in the replica set fail at random.
func (o *Oracle) wrappers(s *Subject, seed int64) ([]mediator.Wrapper, error) {
	var out []mediator.Wrapper
	var low *mediator.Mediator
	client, base := o.srv.Client(), o.srv.URL
	switch s.Kind {
	case KindUntagged:
		client, base = o.mem, "http://origin/untagged"
	case KindStacked:
		low, s.lower = mediator.New("lower"), make([]string, len(o.fleet.Sources))
		s.below = serve.New(low, serve.WithTracer(nil))
		client, base = &http.Client{Transport: &network{members: map[string]http.Handler{"lower": s.below}}}, "http://lower"
	case KindGuarded:
		return o.guarded(seed)
	}
	for i, src := range o.fleet.Sources {
		name := src.Name
		if low != nil {
			name = stackedView(i)
			w, err := mediator.NewHTTPSource(o.mem, "http://origin", src.Name)
			if err == nil {
				err = low.AddSource(w)
			}
			if err == nil {
				_, err = low.DefineView(w.Name(), xmas.MustParse(fmt.Sprintf(`%s = SELECT X WHERE X:<%s/>`, name, src.DTD.Root)))
			}
			if err != nil {
				return nil, err
			}
			s.lower[i] = w.Name()
		}
		w, err := mediator.NewHTTPSource(client, base, name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// stackedView is the lower mediator's view of source i: a document whose
// root holds the source's root.
func stackedView(i int) string { return fmt.Sprint("stacked", i) }

// guarded is wrappers' for a guarded subject.
func (o *Oracle) guarded(seed int64) ([]mediator.Wrapper, error) {
	var out []mediator.Wrapper
	var clock atomic.Int64 // a millisecond later each time it is read
	now := func() time.Time { return time.Unix(0, clock.Add(int64(time.Millisecond))) }
	for i, src := range o.fleet.Sources {
		v := &versioned{name: src.Name, schema: src.DTD, version: &o.versions[i]}
		for _, text := range src.Docs {
			doc, _, err := xmlmodel.Parse(text)
			if err != nil {
				return nil, err
			}
			v.docs = append(v.docs, doc)
		}
		faulty := func(salt int64, p float64) mediator.Wrapper {
			if seed == 0 {
				return v
			}
			return mediator.NewFaultSource(v, mediator.RandomFaults(seed*100+int64(i)*3+salt, 4000, p, 0, errors.New("oracle: injected"))...)
		}
		var w mediator.Wrapper = v
		var err error
		switch i % 3 {
		case 0:
			w = mediator.NewBreakerSource(faulty(0, 0.1), mediator.BreakerOptions{Threshold: 1, Cooldown: 2 * time.Millisecond, Clock: now})
		case 1:
			w, err = mediator.NewReplicaSet(src.Name, []mediator.Wrapper{faulty(1, 0.5), faulty(2, 0.5)}, mediator.ReplicaSetOptions{HedgeDelay: -1,
				Clock: now, Health: mediator.HealthOptions{EjectAfter: 3, EjectCooldown: 2 * time.Millisecond}})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// versioned is an in-memory wrapper of a fleet source: the same *Document
// while the source serves the same version.
type versioned struct {
	name    string
	schema  *dtd.DTD
	version *atomic.Int32
	docs    []*xmlmodel.Document
}

func (v *versioned) Name() string     { return v.name }
func (v *versioned) Schema() *dtd.DTD { return v.schema }
func (v *versioned) Fetch(context.Context) (*xmlmodel.Document, error) {
	return v.docs[v.version.Load()], nil
}

// burst has three readers read s at once, after an invalidation inval: each a
// text ("" is GET /views/{view}) or a conditional GET with a tag s was sent,
// the one it holds or any; one in five leaves mid-read. Each answer is
// checked as Check's are (verify) but for its Content-Length, which only the
// stats around a lone read tell — or, with faults, may fail, or name the
// parts it dropped or served stale and carry no tag.
func (o *Oracle) burst(s *Subject, view, inval string, texts []string, rng *rand.Rand, faults bool, tally Tally) error {
	steps, conds, cancelled := make([]*Step, 3), make([]string, 3), make([]bool, 3)
	var wg sync.WaitGroup
	for i := range steps {
		st := &Step{Subject: s, View: view, Query: texts[rng.Intn(len(texts))], Plan: planConcurrent, Inval: inval, Changed: -1, Versions: o.Versions()}
		if op := rng.Intn(4); op == 0 && s.held != "" {
			st.Query, conds[i] = "", s.held
		} else if op == 1 {
			for tag := range s.tags { // any, as the map's order has it
				st.Query, conds[i] = "", tag
				break
			}
		}
		ctx, cancel := context.WithCancel(background)
		if rng.Intn(5) == 0 {
			time.AfterFunc(time.Duration(rng.Intn(150))*time.Microsecond, cancel)
		}
		steps[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			method, path := target(view, st.Query)
			rec := sendContext(ctx, s.Handler, method, path, st.Query, conds[i])
			st.Status, st.Body, st.Header, st.Tag, cancelled[i] = rec.Code, rec.Body.String(), rec.Header(), rec.Header().Get("ETag"), ctx.Err() != nil
		}()
	}
	wg.Wait()
	// A read that failed or left a part out takes the part's predecessor
	// with it if it led the part's refetch: the next read evaluates the part
	// again, under a new version, so the tag moves.
	partial, lost := make([][]string, len(steps)), false
	for i, st := range steps {
		var prov mediator.Provenance
		prov.FromHeaders(st.Header)
		partial[i] = slices.Concat(prov.DegradedSources, prov.StaleSources)
		tally["dropped parts"] += len(prov.DegradedSources)
		tally["stale parts"] += len(prov.StaleSources)
		if cancelled[i] {
			tally["cancelled readers"]++
		}
		lost = lost || len(partial[i]) > 0 || st.Status != http.StatusOK && st.Status != http.StatusNotModified
	}
	for i, st := range steps {
		if lost {
			s.held = ""
		}
		var err error
		switch {
		case len(partial[i]) > 0:
			if !faults || st.Status != http.StatusOK || st.Tag != "" || slices.ContainsFunc(partial[i], func(n string) bool { return !slices.Contains(s.sources, n) }) {
				err = fmt.Errorf("oracle: %s: a partial answer of %v, status %d, ETag %q, faults injected %v", s, partial[i], st.Status, st.Tag, faults)
			}
		case st.Status != http.StatusOK && st.Status != http.StatusNotModified:
			if !cancelled[i] && !faults {
				err = fmt.Errorf("oracle: %s: a concurrent reader of %s: status %d %s", s, view, st.Status, st.Body)
			}
		default:
			err = o.verify(st, conds[i], 0, tally)
		}
		if err != nil {
			return err
		}
	}
	if lost {
		s.held = ""
	}
	return nil
}

// faults is a guarded subject's fault phase: twenty steps on a subject like
// it whose wrappers under the breaker and in the replica set fail at random,
// each of which may make a source serve its next document, invalidates it or
// everything, and runs a burst of readers of texts.
func (o *Oracle) faults(s *Subject, view string, texts []string, tally Tally) error {
	seed := int64(len(texts))
	f, err := o.newSubject(KindGuarded, s.Pruning, false, seed)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 20 && err == nil; step++ {
		i := rng.Intn(len(o.fleet.Sources))
		if docs := len(o.fleet.Sources[i].Docs); rng.Intn(2) == 0 {
			o.Serve(i, (o.Versions()[i]+1)%docs)
		}
		if rng.Intn(2) == 0 {
			i = -1
		}
		if err = f.invalidate(i, true); err == nil {
			err = o.burst(f, view, "faults", texts, rng, true, tally)
		}
	}
	return err
}
