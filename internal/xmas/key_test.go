package xmas

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// keyStrings is the alphabet of the key property test: few enough values
// that independently drawn trees collide, and among them the bytes the
// encoding itself uses — lengths, counts, flag values, the nil marker — so
// a text can imitate any piece of framing.
var keyStrings = []string{"", "a", "b", "ab", "\x00", "\x01", "\x01a", "a\x01", "\x02ab", "\x00\x00", "\xff", "a\x00b"}

func randKeyString(r *rand.Rand) string { return keyStrings[r.Intn(len(keyStrings))] }

// randKeyCond draws a condition tree. Empty lists are nil, as Parse and
// Clone make them: reflect.DeepEqual tells nil from empty, the key (rightly)
// does not.
func randKeyCond(r *rand.Rand, depth int) *Cond {
	c := &Cond{
		Recursive: r.Intn(4) == 0,
		HasText:   r.Intn(3) == 0,
		Qualifier: r.Intn(3) == 0,
	}
	for n := r.Intn(3); n > 0; n-- {
		c.Names = append(c.Names, randKeyString(r))
	}
	if r.Intn(2) == 0 {
		c.Var = randKeyString(r)
	}
	if r.Intn(2) == 0 {
		c.IDVar = randKeyString(r)
	}
	if r.Intn(2) == 0 {
		c.Text = randKeyString(r)
	}
	if depth > 0 {
		for n := r.Intn(3); n > 0; n-- {
			c.Children = append(c.Children, randKeyCond(r, depth-1))
		}
	}
	return c
}

func randKeyQuery(r *rand.Rand) *Query {
	q := &Query{Name: randKeyString(r), PickVar: randKeyString(r)}
	if r.Intn(8) != 0 {
		q.Root = randKeyCond(r, r.Intn(3))
	}
	for n := r.Intn(3); n > 0; n-- {
		q.Neq = append(q.Neq, [2]string{randKeyString(r), randKeyString(r)})
	}
	return q
}

// keyNeighbours returns q with one thing changed, once per kind of change a
// key could plausibly miss.
func keyNeighbours(q *Query) []*Query {
	var out []*Query
	edit := func(f func(n *Query)) {
		n := q.Clone()
		f(n)
		out = append(out, n)
	}
	edit(func(n *Query) {}) // the clone itself: equal tree, equal key
	edit(func(n *Query) { n.Name += "x" })
	edit(func(n *Query) { n.PickVar += "x" })
	edit(func(n *Query) { n.Neq = append(n.Neq, [2]string{"a", "b"}) })
	if len(q.Neq) > 0 {
		edit(func(n *Query) { n.Neq[0][0], n.Neq[0][1] = n.Neq[0][1], n.Neq[0][0] })
	}
	if q.Root == nil {
		return out
	}
	edit(func(n *Query) { n.Root = nil })
	var count int
	q.Root.walk(func(*Cond) { count++ })
	for at := 0; at < count; at++ {
		nth := func(n *Query) *Cond {
			var found *Cond
			i := 0
			n.Root.walk(func(c *Cond) {
				if i == at {
					found = c
				}
				i++
			})
			return found
		}
		edit(func(n *Query) { c := nth(n); c.Var, c.IDVar = c.IDVar, c.Var })
		edit(func(n *Query) { c := nth(n); c.Qualifier = !c.Qualifier })
		edit(func(n *Query) { c := nth(n); c.Recursive = !c.Recursive })
		edit(func(n *Query) { c := nth(n); c.HasText = !c.HasText })
		edit(func(n *Query) { c := nth(n); c.Text, c.Var = c.Var, c.Text })
		edit(func(n *Query) { c := nth(n); c.Names = append(c.Names, "a") })
		edit(func(n *Query) {
			// ["ab"] against ["a", "b"], and the like.
			if c := nth(n); len(c.Names) >= 2 {
				c.Names = append([]string{c.Names[0] + c.Names[1]}, c.Names[2:]...)
			}
		})
		edit(func(n *Query) {
			if c := nth(n); len(c.Children) >= 2 {
				c.Children[0], c.Children[1] = c.Children[1], c.Children[0]
			}
		})
		edit(func(n *Query) {
			// A child moved up to become its parent's next sibling.
			if c := nth(n); len(c.Children) > 0 && len(c.Children[0].Children) > 0 {
				first := c.Children[0]
				moved := first.Children[len(first.Children)-1]
				first.Children = first.Children[:len(first.Children)-1]
				if len(first.Children) == 0 {
					first.Children = nil
				}
				c.Children = append([]*Cond{first, moved}, c.Children[1:]...)
			}
		})
	}
	return out
}

// TestKeyEqualIffTreesEqual is the memo key's contract (the mediator keeps
// one query plan per key): two queries share a key exactly when their trees
// are the same tree, field for field.
func TestKeyEqualIffTreesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var pool []*Query
	for i := 0; i < 60; i++ {
		pool = append(pool, keyNeighbours(randKeyQuery(r))...)
	}
	for _, text := range []string{
		Q2,
		`r = SELECT X WHERE <v> X:<entry><k/></entry> </v>`,
		`s = SELECT X WHERE <v> X:<entry><k/></entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry>[<k/>]</entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry><k/><l/></entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry><l/><k/></entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry><k>1</k></entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry><k></k></entry> </v>`,
		`r = SELECT X WHERE <v> X:<entry id=X2><k/></entry> </v>`,
	} {
		pool = append(pool, keyNeighbours(MustParse(text))...)
	}
	keys := make([][]byte, len(pool))
	for i, q := range pool {
		keys[i] = q.AppendKey(nil)
	}
	var same, different int
	for i := range pool {
		for j := i; j < len(pool); j++ {
			trees, ks := reflect.DeepEqual(pool[i], pool[j]), bytes.Equal(keys[i], keys[j])
			if trees != ks {
				t.Fatalf("trees equal: %v, keys equal: %v\n%#v\n%#v\nkeys %q\n     %q", trees, ks, pool[i], pool[j], keys[i], keys[j])
			}
			if trees && i != j {
				same++
			} else if !trees {
				different++
			}
		}
	}
	if same < 100 || different < 100 {
		t.Errorf("vacuous: %d equal pairs, %d unequal pairs among %d queries", same, different, len(pool))
	}
}

// TestKeyIsAPrefixCode: the mediator puts the view name in front of the
// key, so no key may be a proper prefix of another.
func TestKeyIsAPrefixCode(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	var keys [][]byte
	for i := 0; i < 400; i++ {
		keys = append(keys, randKeyQuery(r).AppendKey(nil))
	}
	for i, a := range keys {
		for j, b := range keys {
			if i != j && len(a) < len(b) && bytes.HasPrefix(b, a) {
				t.Fatalf("key %q is a proper prefix of key %q", a, b)
			}
		}
	}
}

// TestKeyAppends: AppendKey extends dst, so a caller's prefix survives and
// a stack buffer with room is used in place.
func TestKeyAppends(t *testing.T) {
	q := MustParse(Q2)
	want := q.AppendKey(nil)
	buf := make([]byte, 0, 512)
	got := q.AppendKey(append(buf, "view:"...))
	if !bytes.Equal(got, append([]byte("view:"), want...)) {
		t.Errorf("AppendKey after a prefix = %q, want prefix + %q", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendKey reallocated a buffer that had room")
	}
}

// TestKeyCoversEveryField pins the shapes AppendKey (and Clone) were written
// against. A field added to Query or Cond changes the count: add it to
// AppendKey — a field the key leaves out lets two different queries share
// one kept plan — then to Clone, then update the count here.
func TestKeyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(Query{}).NumField(); n != 4 {
		t.Errorf("xmas.Query has %d fields, AppendKey encodes 4 (Name, PickVar, Root, Neq)", n)
	}
	if n := reflect.TypeOf(Cond{}).NumField(); n != 8 {
		t.Errorf("xmas.Cond has %d fields, AppendKey encodes 8 (Names, Recursive, Var, IDVar, HasText, Text, Qualifier, Children)", n)
	}
}
