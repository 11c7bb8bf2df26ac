package regex

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/budget"
)

func TestParsePrint(t *testing.T) {
	cases := []struct{ in, out string }{
		{"name, professor+, gradStudent+, course*", "name, professor+, gradStudent+, course*"},
		{"title, author+, (journal|conference)", "title, author+, (journal | conference)"},
		{"a|b|c", "a | b | c"},
		{"(a, b)*", "(a, b)*"},
		{"(a|b)?", "(a | b)?"},
		{"a", "a"},
		{"publication^1", "publication^1"},
		{"firstName, lastName, publication*, publication^1, publication*, publication^1, publication*",
			"firstName, lastName, publication*, publication^1, publication*, publication^1, publication*"},
		{"EMPTY", "EMPTY"},
		{"FAIL", "FAIL"},
		{"((a))", "a"},
		{"a,(b,c)", "a, b, c"}, // concat flattening
		{"(a|b)|c", "a | b | c"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "a,,b", "(a", "a)", "a |", "a^", "a^x", "|a", "a b"} {
		if e, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want error", bad, e)
		}
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(rand.New(rand.NewSource(seed)), 4)
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Logf("seed %d: %v on %q", seed, err, s)
			return false
		}
		return Equal(e, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConstructorsIdentities(t *testing.T) {
	a, b := Nm("a"), Nm("b")
	cases := []struct {
		got  Expr
		want string
	}{
		{Cat(a, Eps(), b), "a, b"},
		{Cat(a, Bot(), b), "FAIL"},
		{Cat(), "EMPTY"},
		{Or(a, Bot(), b), "a | b"},
		{Or(Bot(), Bot()), "FAIL"},
		{Or(a, a), "a"},
		{Rep(Bot()), "EMPTY"},
		{Rep(Eps()), "EMPTY"},
		{Rep(Rep(a)), "a*"},
		{Rep(Rep1(a)), "a*"},
		{Rep(Maybe(a)), "a*"},
		{Rep1(Bot()), "FAIL"},
		{Rep1(Rep(a)), "a*"},
		{Rep1(Maybe(a)), "a*"},
		{Maybe(Bot()), "EMPTY"},
		{Maybe(Rep1(a)), "a*"},
		{Maybe(Maybe(a)), "a?"},
		{Cat(Cat(a, b), Cat(b, a)), "a, b, b, a"},
	}
	for _, c := range cases {
		if got := c.got.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestOperatorsOConcatOAlt(t *testing.T) {
	// The paper's ⊕ and ∥ (Section 4.1).
	a, b := Nm("a"), Nm("b")
	if !IsFail(OConcat(a, Bot())) || !IsFail(OConcat(Bot(), a)) {
		t.Error("⊕ must propagate fail")
	}
	if got := OConcat(a, b).String(); got != "a, b" {
		t.Errorf("a⊕b = %q", got)
	}
	if got := OAlt(a, Bot()).String(); got != "a" {
		t.Errorf("a∥fail = %q", got)
	}
	if got := OAlt(Bot(), b).String(); got != "b" {
		t.Errorf("fail∥b = %q", got)
	}
	if !IsFail(OAlt(Bot(), Bot())) {
		t.Error("fail∥fail must be fail")
	}
	if got := OAlt(a, b).String(); got != "a | b" {
		t.Errorf("a∥b = %q", got)
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"EMPTY", true}, {"FAIL", false}, {"a", false}, {"a*", true},
		{"a+", false}, {"a?", true}, {"a,b", false}, {"a*,b*", true},
		{"a|b*", true}, {"(a,b)+", false}, {"(a?)+", true},
	}
	for _, c := range cases {
		if got := Nullable(MustParse(c.in)); got != c.want {
			t.Errorf("Nullable(%s) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNamesAndImage(t *testing.T) {
	e := MustParse("b^2, a, (a^1|c)*")
	names := Names(e)
	want := []Name{N("a"), T("a", 1), T("b", 2), N("c")}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %v, want %v", i, names[i], want[i])
		}
	}
	if got := Image(e).String(); got != "b, a, (a | c)*" {
		t.Errorf("Image = %q", got)
	}
}

func TestEnumerate(t *testing.T) {
	e := MustParse("a, (b|c)*")
	words := Enumerate(e, 2, 100)
	keys := map[string]bool{}
	for _, w := range words {
		keys[wordKey(w)] = true
	}
	for _, want := range []string{"a", "a b", "a c"} {
		if !keys[want] {
			t.Errorf("missing word %q in %v", want, keys)
		}
	}
	if keys[""] || keys["b"] {
		t.Errorf("unexpected words: %v", keys)
	}
	if got := Enumerate(MustParse("FAIL"), 3, 10); len(got) != 0 {
		t.Errorf("FAIL enumerates %v", got)
	}
	if got := Enumerate(MustParse("EMPTY"), 3, 10); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("EMPTY enumerates %v", got)
	}
}

func TestSimplifyMergeCleanup(t *testing.T) {
	// The exact cleanup of Example 4.3: D10's professor type simplifies to
	// "at least two publications".
	cases := []struct{ in, want string }{
		{"publication*, publication, publication*, publication, publication*, teaches",
			"publication, publication+, teaches"},
		{"p*, p, p*", "p+"},
		{"p?, p*", "p*"},
		{"p+, p+", "p, p+"},
		{"(a | a)", "a"},
		{"a | a?", "a?"},
		{"a | a*", "a*"},
		{"a+ | a*", "a*"},
		{"EMPTY | a", "a?"},
		{"EMPTY | a | b", "(a | b)?"},
		{"(EMPTY, a+, EMPTY*)?", "a*"},
	}
	for _, c := range cases {
		got := Simplify(MustParse(c.in), nil).String()
		if got != c.want {
			t.Errorf("Simplify(%s) = %q, want %q", c.in, got, c.want)
		}
	}
}

// chargeLog is a budget.Observer writing down the charge stream in order.
type chargeLog struct {
	mu  sync.Mutex
	log []string
}

func (l *chargeLog) BudgetCharge(resource string, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, fmt.Sprintf("%s+%d", resource, n))
}

func (l *chargeLog) BudgetEvent(event string, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, event)
}

// Simplify charges the caller's budget, as refinement steps, by the nodes of
// every round it runs, and a budget that cannot pay for a round stops it there
// with what the rounds before made: the input itself when it cannot pay for
// the first. The observer of the budget sees each round's charge and the
// exhaustion; a nil budget is charged nothing.
func TestSimplifyChargesTheBudget(t *testing.T) {
	e := MustParse("publication*, publication, publication*, publication, publication*") // the paper's (D10)
	once, _ := simplifyOnce.Rewrite(e)
	if Equal(once, e) || !Equal(Simplify(e, nil), once) {
		t.Fatalf("vacuous: %s is not simplified by one round to %s", e, once)
	}
	size, sizeOnce := int64(Size(e)), int64(Size(once))
	charge := func(n int64) string { return fmt.Sprintf("%s+%d", budget.ResourceRefine, n) }
	const exhausted = "budget.exhausted." + budget.ResourceRefine
	for _, c := range []struct {
		name  string
		limit int64
		want  Expr
		log   []string
	}{
		{"funded", 1000, once, []string{charge(size), charge(sizeOnce)}}, // the second round finds nothing to do
		{"starved", size - 1, e, []string{exhausted}},
		{"no round to confirm the first", size + sizeOnce - 1, once, []string{charge(size), exhausted}},
	} {
		bud := budget.New(budget.Limits{MaxRefineSteps: c.limit})
		var log chargeLog
		bud.SetObserver(&log)
		if got := Simplify(e, bud); !Equal(got, c.want) {
			t.Errorf("%s: Simplify = %s, want %s", c.name, got, c.want)
		}
		if fmt.Sprint(log.log) != fmt.Sprint(c.log) {
			t.Errorf("%s: the observer saw %v, want %v", c.name, log.log, c.log)
		}
		if (bud.Exhausted() != nil) != (c.name != "funded") {
			t.Errorf("%s: budget exhausted: %v", c.name, bud.Exhausted())
		}
	}
}

func TestSizeMonotoneUnderSimplify(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(rand.New(rand.NewSource(seed)), 5)
		return Size(Simplify(e, nil)) <= Size(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseWord(t *testing.T) {
	w, err := ParseWord("name professor publication^1")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 || w[2] != T("publication", 1) {
		t.Errorf("got %v", w)
	}
	if _, err := ParseWord("a (b|c)"); err == nil {
		t.Error("non-name tokens must be rejected")
	}
}

// randomExpr builds a random expression for property tests; shared with the
// automata package's tests via identical logic there.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return Eps()
		default:
			base := string(rune('a' + r.Intn(3)))
			tag := 0
			if r.Intn(4) == 0 {
				tag = 1 + r.Intn(2)
			}
			return NmT(base, tag)
		}
	}
	switch r.Intn(7) {
	case 0:
		return Cat(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Or(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return Rep(randomExpr(r, depth-1))
	case 3:
		return Rep1(randomExpr(r, depth-1))
	case 4:
		return Maybe(randomExpr(r, depth-1))
	default:
		return randomExpr(r, 0)
	}
}

func TestStringNeverPanicsAndParses(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := randomExpr(r, 6)
		s := e.String()
		if strings.TrimSpace(s) == "" {
			t.Fatalf("empty rendering for %#v", e)
		}
		if _, err := Parse(s); err != nil {
			t.Fatalf("reparse of %q failed: %v", s, err)
		}
	}
}

func TestDerivBasics(t *testing.T) {
	cases := []struct {
		re, word string
		want     bool
	}{
		{"a, b", "a b", true},
		{"a, b", "a", false},
		{"a, b", "b a", false},
		{"(a|b)*", "", true},
		{"(a|b)*", "a b b a", true},
		{"a+", "", false},
		{"a+", "a a a", true},
		{"a?, b", "b", true},
		{"a?, b", "a b", true},
		{"FAIL", "", false},
		{"EMPTY", "", true},
	}
	for _, c := range cases {
		w, err := ParseWord(c.word)
		if err != nil {
			t.Fatal(err)
		}
		if got := MatchDeriv(MustParse(c.re), w); got != c.want {
			t.Errorf("MatchDeriv(%s, %q) = %v, want %v", c.re, c.word, got, c.want)
		}
	}
}

// TestQuickDerivMatchesEnumeration: the derivative matcher accepts exactly
// the enumerated language (bounded).
func TestQuickDerivMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		for _, w := range Enumerate(e, 4, 50) {
			if !MatchDeriv(e, w) {
				t.Logf("seed %d: %s rejects its own word %v", seed, e, w)
				return false
			}
		}
		// Random words: compare against a second evaluation via derivatives
		// of the simplified expression (Simplify must not change answers).
		s := Simplify(e, nil)
		for i := 0; i < 12; i++ {
			n := r.Intn(5)
			w := make([]Name, n)
			for j := range w {
				w[j] = N(string(rune('a' + r.Intn(3))))
			}
			if MatchDeriv(e, w) != MatchDeriv(s, w) {
				t.Logf("seed %d: Simplify changed derivative answer on %v for %s", seed, w, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestNestingGuard(t *testing.T) {
	deep := strings.Repeat("(", 100000) + "a" + strings.Repeat(")", 100000)
	if _, err := Parse(deep); err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Errorf("adversarial nesting must be rejected gracefully, got %v", err)
	}
	ok := strings.Repeat("(", 500) + "a" + strings.Repeat(")", 500)
	if _, err := Parse(ok); err != nil {
		t.Errorf("500 levels should parse: %v", err)
	}
}
