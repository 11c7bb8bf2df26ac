package oem

import (
	"strings"
	"testing"
)

func TestParsePath(t *testing.T) {
	q, err := ParsePath("department.professor|gradStudent.publication*")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "department.professor|gradStudent.publication*" {
		t.Errorf("round trip: %s", q)
	}
	if len(q.Steps) != 3 || !q.Steps[2].Recursive {
		t.Errorf("steps: %+v", q.Steps)
	}
	for _, bad := range []string{"", "a..b", "a.|b", " . ", "a.*b"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) should fail", bad)
		}
	}
}

func TestPathEval(t *testing.T) {
	root := parseElem(t, `<r>
	  <g><m>1</m><m>2</m></g>
	  <h><m>3</m></h>
	  <g><x><m>4</m></x></g>
	</r>`)
	cases := []struct {
		path string
		want int
	}{
		{"r.g.m", 2},
		{"r.%.m", 3},
		{"r.g|h.m", 3},
		{"r.g.x.m", 1},
		{"r.nosuch", 0},
		{"wrongroot.g", 0},
		{"r", 1},
	}
	for _, c := range cases {
		q, err := ParsePath(c.path)
		if err != nil {
			t.Fatal(err)
		}
		got := q.Eval(root)
		if len(got) != c.want {
			t.Errorf("Eval(%s) = %d elements, want %d", c.path, len(got), c.want)
		}
	}
}

func TestPathEvalRecursive(t *testing.T) {
	root := parseElem(t, `<s>
	  <p>1</p>
	  <s><p>2</p><s><p>3</p></s></s>
	</s>`)
	q, err := ParsePath("s*.p")
	if err != nil {
		t.Fatal(err)
	}
	got := q.Eval(root)
	if len(got) != 3 {
		t.Errorf("recursive eval = %d, want 3", len(got))
	}
	vals := []string{}
	for _, o := range got {
		vals = append(vals, o.Text)
	}
	if strings.Join(vals, ",") != "1,2,3" {
		t.Errorf("order: %v", vals)
	}
}

func TestGuideSatisfiable(t *testing.T) {
	root := parseElem(t, `<r><g><m>1</m></g><h><n>2</n></h></r>`)
	dg, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}
	sat := []string{"r.g.m", "r.%.n", "r.g|h.m", "r"}
	unsat := []string{"r.g.n", "r.m", "r.h.m", "z.g"}
	for _, p := range sat {
		q, _ := ParsePath(p)
		if !dg.Satisfiable(q) {
			t.Errorf("%s should be guide-satisfiable", p)
		}
	}
	for _, p := range unsat {
		q, _ := ParsePath(p)
		if dg.Satisfiable(q) {
			t.Errorf("%s should be guide-unsatisfiable", p)
		}
	}
}

// TestGuideAgreesWithEval: guide-satisfiability is exact over the
// summarized data for non-recursive paths — a path returns elements iff the
// guide says it can.
func TestGuideAgreesWithEval(t *testing.T) {
	root := parseElem(t, `<r>
	  <a><b><c>1</c></b></a>
	  <a><d>2</d></a>
	  <e>3</e>
	</r>`)
	dg, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"r", "a", "b", "c", "d", "e", "z"}
	var paths []string
	for _, l1 := range labels[1:] {
		paths = append(paths, "r."+l1)
		for _, l2 := range labels[1:] {
			paths = append(paths, "r."+l1+"."+l2)
		}
	}
	for _, p := range paths {
		q, _ := ParsePath(p)
		evalHas := len(q.Eval(root)) > 0
		guideSat := dg.Satisfiable(q)
		if evalHas != guideSat {
			t.Errorf("%s: eval=%v guide=%v", p, evalHas, guideSat)
		}
		got := q.EvalWithGuide(root, dg)
		if (len(got) > 0) != evalHas {
			t.Errorf("%s: EvalWithGuide disagrees", p)
		}
	}
}

func TestEvalWithGuideSkips(t *testing.T) {
	root := parseElem(t, `<r><a>1</a></r>`)
	dg, _ := Build(root)
	q, _ := ParsePath("r.b.c")
	if got := q.EvalWithGuide(root, dg); got != nil {
		t.Errorf("guide-pruned path returned %v", got)
	}
	if got := q.EvalWithGuide(root, nil); got != nil && len(got) != 0 {
		t.Errorf("nil guide: %v", got)
	}
}
