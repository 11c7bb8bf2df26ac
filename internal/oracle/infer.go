package oracle

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/xmas"
)

// render is the POST /infer response of a result, written from the result
// and not by the handler.
func render(res *infer.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- specialized view DTD\n%s\n-- plain view DTD\n%s\n-- classification: %s\n", res.SDTD, res.DTD, res.Class)
	if res.Degraded {
		fmt.Fprintf(&b, "-- degraded: %s (sound but not tightest; loose names: %s)\n", res.DegradedReason, strings.Join(res.DegradedNames, ", "))
	}
	for _, ev := range res.Merges {
		if ev.Distinct {
			fmt.Fprintf(&b, "-- warning: %s\n", ev)
		}
	}
	return b.String()
}

// CheckInfer posts every text (a DOCTYPE, then a view definition) to h
// twice — a memo miss, then a hit — and checks that both answers are what a
// direct InferContext renders, under the same headers. It returns the
// renders, in the order of the texts.
func CheckInfer(h http.Handler, texts []string) ([]string, error) {
	var out []string
	for _, text := range texts {
		src, query, err := dtd.ParsePrefix(text)
		if err != nil {
			return nil, err
		}
		q, err := xmas.Parse(query)
		if err != nil {
			return nil, err
		}
		res, err := infer.InferContext(background, q, src)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w\n%s", err, text)
		}
		if err := Canonical(res.SDTD); err != nil {
			return nil, err
		}
		want := render(res)
		var first http.Header
		for _, post := range []string{"the memo miss", "the memo hit"} {
			rec := send(h, http.MethodPost, "/infer", text, "")
			if rec.Code != http.StatusOK || rec.Body.String() != want {
				return nil, fmt.Errorf("oracle: POST /infer, %s: status %d, the body differs from a direct inference:\n%s\nwant:\n%s\ntext:\n%s", post, rec.Code, rec.Body, want, text)
			}
			hdr := rec.Header().Clone()
			hdr.Del(obs.TraceHeader)
			if first == nil {
				first = hdr
			} else if !reflect.DeepEqual(hdr, first) {
				return nil, fmt.Errorf("oracle: POST /infer, %s: headers %v, the miss's were %v\ntext:\n%s", post, hdr, first, text)
			}
		}
		out = append(out, want)
	}
	return out, nil
}
