package xmlmodel

import (
	"bytes"
	"math/rand"
	"testing"
)

// run is one run of WriteRuns: its elements and, when kept, their bytes.
type run struct {
	es   []*Element
	kept []byte
}

// checkRunsSize asserts RunsSize's contract over one call of WriteRuns: the
// size is known exactly when every run with elements brings its bytes, and
// then it is the length of what WriteRuns writes.
func checkRunsSize(t *testing.T, root *Element, indent int, runs []run) {
	t.Helper()
	at := func(i int) ([]*Element, []byte) { return runs[i].es, runs[i].kept }
	var buf bytes.Buffer
	if err := WriteRuns(&buf, root, indent, len(runs), at); err != nil {
		t.Fatal(err)
	}
	streamed := false
	for _, r := range runs {
		streamed = streamed || len(r.es) > 0 && r.kept == nil
	}
	size, ok := RunsSize(root, indent, len(runs), at)
	switch {
	case ok == streamed:
		t.Fatalf("RunsSize says known=%v with a run to stream=%v (indent %d, root %v, %d runs)", ok, streamed, indent, root != nil, len(runs))
	case ok && size != buf.Len():
		t.Fatalf("RunsSize = %d, WriteRuns wrote %d bytes (indent %d, root %v, %d runs):\n%s", size, buf.Len(), indent, root != nil, len(runs), buf.Bytes())
	}
}

// randomRuns is up to five runs, each empty (with or without bytes), to be
// streamed, or kept with the bytes WriteRuns' contract says it brings.
func randomRuns(r *rand.Rand, indent int) []run {
	runs := make([]run, r.Intn(6))
	for i := range runs {
		kind := r.Intn(4)
		if kind == 0 {
			if r.Intn(2) == 0 {
				runs[i].kept = []byte{}
			}
			continue
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			e := randomElement(r, 3)
			if r.Intn(3) == 0 {
				e.ID = randomText(r)
			}
			runs[i].es = append(runs[i].es, e)
		}
		if kind > 1 {
			runs[i].kept = MarshalElements(runs[i].es, indent, 1)
		}
	}
	return runs
}

// TestRunsSizeIsWhatWriteRunsWrites: over random runs that mix kept, streamed
// and empty ones, under a nil root or roots whose IDs need escaping, compact
// and indented, a known size is the length of what WriteRuns writes.
func TestRunsSizeIsWhatWriteRunsWrites(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	known := 0
	for i := 0; i < 3000; i++ {
		indent := []int{-1, 2}[r.Intn(2)]
		var root *Element
		if r.Intn(4) > 0 {
			root = NewElement(string(rune('a' + r.Intn(6))))
			if r.Intn(2) == 0 {
				root.ID = randomText(r)
			}
		}
		runs := randomRuns(r, indent)
		if _, ok := RunsSize(root, indent, len(runs), func(i int) ([]*Element, []byte) { return runs[i].es, runs[i].kept }); ok {
			known++
		}
		checkRunsSize(t, root, indent, runs)
	}
	if known < 500 {
		t.Fatalf("only %d of 3000 cases had a known size: the property was hardly checked", known)
	}
}

// FuzzRunsSize checks the same property over runs built from arbitrary IDs
// and text: shape picks, two bits a run, whether each of four runs is empty,
// streamed, kept, or kept with a child that carries the ID; its top bits drop
// the root and make the output compact.
func FuzzRunsSize(f *testing.F) {
	for _, seed := range []struct {
		id, text string
		shape    uint16
	}{
		{"", "", 0},                   // a childless root
		{"p&1", "a<b", 0b10},          // one kept run, the root's ID escaped
		{`"q"`, "x", 0b1110_1110},     // kept and kept with an ID
		{"", "&amp;", 0b0110},         // a kept run, then one to stream
		{"r>", "t", 0b1_0000_1010},    // no root
		{"s", "é世", 0b10_0000_1111},   // compact
		{"<&>", `""`, 0b11_1111_1111}, // compact, no root, every run kept with IDs
	} {
		f.Add(seed.id, seed.text, seed.shape)
	}
	f.Fuzz(func(t *testing.T, id, text string, shape uint16) {
		indent := 2
		if shape&(1<<9) != 0 {
			indent = -1
		}
		var root *Element
		if shape&(1<<8) == 0 {
			root = &Element{Name: "r", ID: id}
		}
		runs := make([]run, 4)
		for i := range runs {
			kind := shape >> (2 * i) & 3
			if kind == 0 {
				continue
			}
			e := NewElement("e", NewText("t", text))
			if kind == 3 {
				e.ID = id
			}
			runs[i].es = []*Element{e, NewElement("f")}
			if kind > 1 {
				runs[i].kept = MarshalElements(runs[i].es, indent, 1)
			}
		}
		checkRunsSize(t, root, indent, runs)
	})
}
