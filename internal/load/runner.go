package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/mediator"
	"repro/internal/xmas"
)

// This file is the one runner under all three campaigns (Harness.Run,
// RunChaos, RunCluster): one open loop, one way onto the wire, one fleet
// builder, one check collector, one report writer. A campaign is what it
// adds on top — a fixture and, for the phased ones, a table of phases.

// openLoop is the only dispatcher. Operation i of n is due at due(i) after
// the call: an absolute schedule, fixed by the target rate alone, so neither
// a slow server nor a lagging loop pushes later operations back. An
// operation that finds all inFlight slots taken at its turn is shed — listed
// in the result, never queued or sent late — so an overloaded server shows
// up as latency and shed in the report instead of as a conveniently
// self-throttling client. fire runs on its own goroutine; openLoop returns
// once every fired operation has come back. A cancelled ctx ends the
// schedule where it stands: the operations not yet due are neither fired
// nor shed.
func openLoop(ctx context.Context, n int, due func(i int) time.Duration, inFlight int, fire func(i int)) (shed []int) {
	slots := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := time.Until(start.Add(due(i))); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return shed
			}
		} else if ctx.Err() != nil {
			return shed
		}
		select {
		case slots <- struct{}{}:
		default:
			shed = append(shed, i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			fire(i)
		}()
	}
	return shed
}

// phase is one row of a campaign's table.
type phase struct {
	name string
	// enter flips whatever the phase is about (a replica down, a node
	// killed) before its traffic starts; nil flips nothing.
	enter func()
	// fire is one request of the phase's open-loop traffic; nil means the
	// phase has none and consists of its exit alone.
	fire func(ctx context.Context, i int)
	// exit reads the phase's outcome off into the report once the traffic
	// has drained, and undoes what enter must not leave behind.
	exit func(ctx context.Context, shed int)
}

// phaseInFlight bounds a phase's concurrent requests.
const phaseInFlight = 32

// runPhases drives a table top to bottom, each phase's traffic as rps × d
// requests at constant spacing through openLoop. A phase that was entered
// is always exited; a cancelled ctx stops the table after the phase it
// caught and is returned naming it.
func runPhases(ctx context.Context, rps float64, d time.Duration, table []phase) error {
	n := max(int(rps*d.Seconds()), 1)
	due := func(i int) time.Duration { return time.Duration(float64(i) / rps * float64(time.Second)) }
	for _, p := range table {
		if p.enter != nil {
			p.enter()
		}
		var shed []int
		if p.fire != nil {
			shed = openLoop(ctx, n, due, phaseInFlight, func(i int) { p.fire(ctx, i) })
		}
		p.exit(ctx, len(shed))
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("load: phase %s: %w", p.name, err)
		}
	}
	return nil
}

// client carries every campaign's traffic. The timeout is a backstop: a
// request that needs it has already failed whatever latency check applies.
var client = &http.Client{Timeout: 30 * time.Second}

// response is what one request came back with. The zero value — what a
// transport error leaves — reads as status 0 with no headers.
type response struct {
	status int
	header http.Header
	body   string
}

// send is the only way campaign traffic reaches the wire: one request, the
// whole (bounded) body read, so the connection is reusable when it returns.
func send(ctx context.Context, method, url, body string) (response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return response{resp.StatusCode, resp.Header, string(b)}, err
}

// servers is everything a phased campaign's fixture has listening, the part
// of it that must be torn down.
type servers []*httptest.Server

func (s servers) close() {
	for _, srv := range s {
		srv.Close()
	}
}

// fleetSource synthesizes member i of a phased campaign's fleet: the schema
// families in rotation, a few dozen elements each.
func fleetSource(name string, seed int64, i int) (*Source, error) {
	fams := Families()
	return BuildSource(name, SourceOptions{
		Schema: SchemaOptions{Seed: seed + int64(i), Family: fams[i%len(fams)]},
		Gen:    gen.Options{MaxDepth: 6, LengthBias: 0.3, AssignIDs: true},
	})
}

// entryPart is the view part every campaign view is made of: the entries
// of the source (or lower-level view) called name.
func entryPart(name string) mediator.ViewPart {
	return mediator.ViewPart{
		Source: name,
		Query:  xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, name, name)),
	}
}

// addStatic registers src's corpus with m as a static source — decorated by
// wrap when one is given — and returns the part selecting its entries.
func addStatic(m *mediator.Mediator, src *Source, wrap func(mediator.Wrapper) mediator.Wrapper) (mediator.ViewPart, error) {
	static, err := mediator.NewStaticSource(src.Name, src.Doc, src.DTD)
	if err != nil {
		return mediator.ViewPart{}, err
	}
	var w mediator.Wrapper = static
	if wrap != nil {
		w = wrap(w)
	}
	return entryPart(src.Name), m.AddSource(w)
}

// verdict collects a campaign's checks into its report: each lands in
// *list, and *pass ends as their conjunction.
type verdict struct {
	list *[]SLOCheck
	pass *bool
}

func newVerdict(list *[]SLOCheck, pass *bool) verdict {
	*list, *pass = nil, true
	return verdict{list, pass}
}

func (v verdict) atMost(name string, limit, actual float64) {
	v.add(name, limit, actual, actual <= limit)
}

func (v verdict) atLeast(name string, limit, actual float64) {
	v.add(name, limit, actual, actual >= limit)
}

func (v verdict) add(name string, limit, actual float64, ok bool) {
	*v.list = append(*v.list, SLOCheck{Name: name, Limit: limit, Actual: actual, Pass: ok})
	*v.pass = *v.pass && ok
}

// trailer ends every Summary: the verdict, then one line per failed check.
func trailer(label string, list []SLOCheck, pass bool) string {
	out := label + ": PASS"
	if !pass {
		out = label + ": FAIL"
	}
	for _, c := range list {
		if !c.Pass {
			out += fmt.Sprintf("\n  FAIL %s: actual %.6g, limit %.6g", c.Name, c.Actual, c.Limit)
		}
	}
	return out
}

// writeJSON is the one report encoding: indented, newline-terminated.
func writeJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// writeFile archives a report at path — encoded first, so a report that
// does not encode leaves the previous archive alone.
func writeFile(path string, report any) error {
	var buf bytes.Buffer
	if err := writeJSON(&buf, report); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
