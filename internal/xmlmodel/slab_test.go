package xmlmodel_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// Parse and Clone build a tree out of a few arrays instead of one object
// per node. These tests hold the sharing that introduces to what callers
// may rely on: every child list is its own (cap == len), a clone and its
// original never see each other's mutations, and AssignIDs numbers a
// parsed tree as it numbers any other.

// parsedFamilyDoc is familyDoc after a trip through the serializer and the
// parser: the same document, slab-built.
func parsedFamilyDoc(t *testing.T, f load.Family, size int) *xmlmodel.Document {
	t.Helper()
	doc, _, err := xmlmodel.Parse(xmlmodel.Marshal(familyDoc(t, f, size), 2))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func elementsOf(root *xmlmodel.Element) []*xmlmodel.Element {
	var all []*xmlmodel.Element
	root.Walk(func(e *xmlmodel.Element) bool { all = append(all, e); return true })
	return all
}

// checkAppendStaysLocal appends to every element's child list in turn and
// takes the append back by restoring the slice header: had the append
// written into spare capacity, the slot belongs to the next list carved
// from the same array, and the tree no longer equals want, a copy of it
// built apart.
func checkAppendStaysLocal(t *testing.T, root, want *xmlmodel.Element) {
	t.Helper()
	for i, e := range elementsOf(root) {
		if cap(e.Children) != len(e.Children) {
			t.Fatalf("element %d <%s>: child list has len %d, cap %d", i, e.Name, len(e.Children), cap(e.Children))
		}
		own := e.Children
		e.Children = append(e.Children, xmlmodel.NewText("intruder", "!"))
		e.Children = own
		if !root.Equal(want) {
			t.Fatalf("appending to element %d <%s> changed another subtree%s", i, e.Name,
				firstDiff(xmlmodel.MarshalElement(root, -1), xmlmodel.MarshalElement(want, -1)))
		}
	}
}

func TestAppendToAChildListStaysLocal(t *testing.T) {
	for _, f := range load.Families() {
		if f == load.FamilyRecursive {
			continue // one entry is 400 KiB, and the check is quadratic
		}
		t.Run(string(f), func(t *testing.T) {
			doc, want := parsedFamilyDoc(t, f, 16<<10), parsedFamilyDoc(t, f, 16<<10)
			checkAppendStaysLocal(t, doc.Root, want.Root)
			checkAppendStaysLocal(t, doc.Root.Clone(), want.Root)
		})
	}
}

// A tree scan gives its stacks back to a pool when it ends, and the tree it
// handed out shares nothing with them: built by dtd.ParseValid, sized by its
// own count, a document stays equal to a copy made apart while many more
// scans — of other documents, sized and not, on several goroutines — run on
// the pooled stacks, and appending to any of its child lists stays local.
func TestScanPoolAliasesNothing(t *testing.T) {
	type source struct {
		d    *dtd.DTD
		body string
	}
	var sources []source
	for _, f := range load.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			src, err := load.BuildSource("site", load.SourceOptions{
				Schema: load.SchemaOptions{Seed: seed, Family: f},
				Gen:    gen.Options{MaxDepth: 6, LengthBias: 0.3, AssignIDs: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, source{src.DTD, dtd.MarshalDocument(src.Doc, src.DTD, 2)})
		}
	}
	kept := sources[len(sources)-1]
	_, _, n, err := kept.d.ParseValid(kept.body, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _, err := kept.d.ParseValid(kept.body, n)
	if err != nil {
		t.Fatal(err)
	}
	want, text := doc.Root.Clone(), xmlmodel.MarshalElement(doc.Root, -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := sources[(g*7+i)%len(sources)]
				if _, _, _, err := s.d.ParseValid(s.body, i%3*n/2); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := xmlmodel.Parse(s.body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := xmlmodel.MarshalElement(doc.Root, -1); got != text || !doc.Root.Equal(want) {
		t.Fatalf("a tree changed while other scans ran%s", firstDiff(got, text))
	}
	checkAppendStaysLocal(t, doc.Root, want)
}

// scramble changes everything an Element owns, in place: names, IDs, text,
// the order of every child list, and its length.
func scramble(root *xmlmodel.Element) {
	for i, e := range elementsOf(root) {
		e.Name += "x"
		e.ID = fmt.Sprintf("scrambled%d", i)
		if e.IsText {
			e.Text += " (edited)"
			continue
		}
		for l, r := 0, len(e.Children)-1; l < r; l, r = l+1, r-1 {
			e.Children[l], e.Children[r] = e.Children[r], e.Children[l]
		}
		if len(e.Children) > 2 {
			e.Children = e.Children[:len(e.Children)-1]
		}
		e.Children = append(e.Children, xmlmodel.NewText("added", "!"))
	}
}

func TestCloneIsIndependentBothWays(t *testing.T) {
	doc := parsedFamilyDoc(t, load.FamilyMixed, 16<<10)
	trees := map[string]*xmlmodel.Element{"original": doc.Root, "clone": doc.Root.Clone()}
	trees["clone of the clone"] = trees["clone"].Clone()
	for name, e := range trees {
		if !e.Equal(doc.Root) {
			t.Fatalf("the %s differs from the original before anything was changed", name)
		}
	}
	for victim, root := range trees {
		before := map[string]string{}
		for name, e := range trees {
			before[name] = xmlmodel.MarshalElement(e, -1)
		}
		scramble(root)
		if xmlmodel.MarshalElement(root, -1) == before[victim] {
			t.Fatalf("scrambling the %s changed nothing", victim)
		}
		for name, e := range trees {
			if name != victim && xmlmodel.MarshalElement(e, -1) != before[name] {
				t.Errorf("scrambling the %s changed the %s", victim, name)
			}
		}
	}
}

func TestAssignIDsOnAParsedDocument(t *testing.T) {
	built := familyDoc(t, load.FamilyIDRef, 16<<10)
	for i, e := range elementsOf(built.Root) {
		if i%3 != 0 {
			e.ID = "" // leave some taken, so the counter has IDs to step over
		} else {
			e.ID = fmt.Sprintf("n%d", i/3)
		}
	}
	parsed, _, err := xmlmodel.Parse(xmlmodel.Marshal(built, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Root.AssignIDs("n"); err != nil {
		t.Fatal(err)
	}
	if err := parsed.Root.AssignIDs("n"); err != nil {
		t.Fatal(err)
	}
	if got, want := xmlmodel.MarshalElement(parsed.Root, -1), xmlmodel.MarshalElement(built.Root, -1); got != want {
		t.Errorf("AssignIDs numbers a parsed document differently from the tree it was serialized from%s", firstDiff(got, want))
	}
}

// A clone is two arrays whatever the size of the subtree.
func TestCloneAllocations(t *testing.T) {
	for _, size := range []int{16 << 10, 64 << 10} {
		doc := parsedFamilyDoc(t, load.FamilyMixed, size)
		var c *xmlmodel.Element
		if n := testing.AllocsPerRun(20, func() { c = doc.Root.Clone() }); n > 2 {
			t.Errorf("Clone of %d elements: %v allocs, want ≤ 2", c.Size(), n)
		}
	}
	leaf := xmlmodel.NewText("t", "x")
	if n := testing.AllocsPerRun(20, func() { _ = leaf.Clone() }); n > 1 {
		t.Errorf("Clone of a leaf: %v allocs, want ≤ 1", n)
	}
}
