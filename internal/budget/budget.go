// Package budget provides hierarchical resource budgets for the
// inference side of the mediator. The paper proves that tight view DTDs
// can be expensive — or outright unattainable (Examples 3.1/3.5) — while
// soundness is always within reach, so every potentially exponential
// operation (DFA subset construction, product constructions, structural
// class enumeration, sequential refinement) charges a budget and stops
// when it runs out. Callers then degrade to a sound-but-looser result
// instead of hanging or exhausting memory: the partial order of
// Definition 3.2 licenses exactly that trade.
//
// A Budget carries four independently configurable resources:
//
//   - a wall-clock deadline,
//   - a DFA state-count cap (subset construction + products),
//   - a structural-class cap (tightness.EnumerateClasses),
//   - a refine-step cap, in AST nodes passed through refinement
//     (infer's sequential refinement loop).
//
// Budgets form a hierarchy: a Child's charges propagate to its parent, so
// a process-wide budget can bound the sum of many per-view budgets while
// each view also has its own caps. Exhaustion is sticky — after the first
// exhausted charge every later charge fails with the same error — which is
// what makes "skip refinement for the exhausted element names" a
// well-defined degradation: everything after the first overrun takes the
// cheap sound path.
//
// The nil *Budget is valid everywhere and means "unlimited"; threading a
// budget through existing code therefore never needs nil checks. A budget
// travels one of two ways, decided by the callee's signature: a function
// that takes a context reads it from there (NewContext/FromContext) and
// honours cancellation too; a function that does not takes it as its last
// parameter. No function has an unbudgeted twin: unlimited is a nil
// argument, and Limits.Budget makes it from limits that limit nothing.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrExhausted is the sentinel matched by errors.Is for every budget
// exhaustion, whatever the resource that ran out.
var ErrExhausted = errors.New("budget exhausted")

// Observer receives a budget's charge stream for observability. It is
// satisfied by obs.(*Span) without either package importing the other:
// successful charges are coalesced into per-resource span counters and
// discrete milestones become span events — which is how a degraded
// request's trace shows where its budget went.
//
// Implementations must be safe for concurrent use: charges arrive from
// the inference fan-out workers.
type Observer interface {
	// BudgetCharge reports a successful charge of n units of a resource
	// (ResourceStates, ResourceClasses, ResourceRefine).
	BudgetCharge(resource string, n int64)
	// BudgetEvent reports a discrete milestone: the first exhaustion
	// ("budget.exhausted.<resource>", n = limit) or an annotation posted
	// via NoteEvent (e.g. automata cold compiles).
	BudgetEvent(event string, n int64)
}

// Resource names used in ExhaustedError and Usage.
const (
	ResourceDeadline = "deadline"
	ResourceStates   = "dfa-states"
	ResourceClasses  = "classes"
	ResourceRefine   = "refine-steps"
)

// ExhaustedError reports which resource ran out and at what limit. It
// matches ErrExhausted under errors.Is.
type ExhaustedError struct {
	Resource string
	Limit    int64
}

func (e *ExhaustedError) Error() string {
	if e.Resource == ResourceDeadline {
		return fmt.Sprintf("budget exhausted: deadline (%s) passed", time.Duration(e.Limit))
	}
	return fmt.Sprintf("budget exhausted: %s limit %d reached", e.Resource, e.Limit)
}

// Is makes errors.Is(err, ErrExhausted) true for every ExhaustedError.
func (e *ExhaustedError) Is(target error) bool { return target == ErrExhausted }

// Limits configures a Budget. A zero field means that resource is
// unlimited; the zero Limits value is a fully unlimited budget (useful as
// a hierarchy root that only aggregates usage).
type Limits struct {
	// Deadline is the wall-clock allowance measured from New/Child.
	Deadline time.Duration
	// MaxStates caps the number of DFA states constructed (subset
	// construction and product states both count).
	MaxStates int64
	// MaxClasses caps the number of structural classes enumerated.
	MaxClasses int64
	// MaxRefineSteps caps refinement work, counted in AST nodes passed
	// through the sequential refinement loop (size-proportional, so one
	// cap bounds both step count and expression growth).
	MaxRefineSteps int64
}

// Unlimited reports whether every resource is unconstrained.
func (l Limits) Unlimited() bool {
	return l.Deadline == 0 && l.MaxStates == 0 && l.MaxClasses == 0 && l.MaxRefineSteps == 0
}

// Budget returns New(l), or nil — the unlimited budget — when l limits
// nothing: the one place "limits → maybe-nil budget" is spelled, so code
// that runs without limits allocates nothing and charges nothing.
func (l Limits) Budget() *Budget {
	if l.Unlimited() {
		return nil
	}
	return New(l)
}

// Usage is a point-in-time snapshot of a budget's consumption.
type Usage struct {
	States      int64 `json:"states"`
	Classes     int64 `json:"classes"`
	RefineSteps int64 `json:"refine_steps"`
	// Exhausted is non-empty when the budget has run out; it holds the
	// first exhaustion's error text.
	Exhausted string `json:"exhausted,omitempty"`
}

// Budget is a set of resource counters with limits and an optional
// parent. All methods are safe for concurrent use and valid on a nil
// receiver (a nil Budget is unlimited and never exhausts).
type Budget struct {
	parent *Budget
	limits Limits
	// deadline is the absolute cutoff (zero when none); it already
	// incorporates the parent's deadline at construction time.
	deadline time.Time

	states  atomic.Int64
	classes atomic.Int64
	refines atomic.Int64

	// exhausted holds the first ExhaustedError observed; later charges
	// return it unchanged (sticky exhaustion).
	exhausted atomic.Pointer[ExhaustedError]

	// observer receives the charge stream (see Observer); nil when the
	// budget is unobserved.
	observer atomic.Pointer[Observer]
}

// New returns a budget with the given limits. The deadline clock starts
// now.
func New(l Limits) *Budget {
	b := &Budget{limits: l}
	if l.Deadline > 0 {
		b.deadline = time.Now().Add(l.Deadline)
	}
	return b
}

// Child returns a budget with its own limits whose charges also propagate
// to b: the child exhausts when either its own caps or any ancestor's are
// hit. The child's deadline never exceeds the parent's. Child on a nil
// budget is New (a root).
func (b *Budget) Child(l Limits) *Budget {
	c := New(l)
	if b == nil {
		return c
	}
	c.parent = b
	if !b.deadline.IsZero() && (c.deadline.IsZero() || b.deadline.Before(c.deadline)) {
		c.deadline = b.deadline
	}
	return c
}

// SetObserver attaches (or, with nil, detaches) the observer receiving
// this budget's charge stream. Observers are per-budget: a child's
// charges propagate to the parent's counters but only notify the child's
// own observer, so a span observing a request budget is not spammed by
// sibling requests. Safe for concurrent use; nil budgets ignore it.
func (b *Budget) SetObserver(o Observer) {
	if b == nil {
		return
	}
	if o == nil {
		b.observer.Store(nil)
		return
	}
	b.observer.Store(&o)
}

// notifyCharge reports a successful charge to the observer, if any.
func (b *Budget) notifyCharge(resource string, n int64) {
	if p := b.observer.Load(); p != nil {
		(*p).BudgetCharge(resource, n)
	}
}

// NoteEvent posts a discrete annotation to the budget's observer (e.g.
// "automata.compile" with the state count of a cold compile). It charges
// nothing and is valid on nil budgets; unobserved budgets drop it.
func (b *Budget) NoteEvent(event string, n int64) {
	if b == nil {
		return
	}
	if p := b.observer.Load(); p != nil {
		(*p).BudgetEvent(event, n)
	}
}

// exhaust records the first exhaustion and returns the winning error, so
// every caller sees one consistent reason. The first exhaustion — and
// only the first — is surfaced to the observer as a discrete event.
func (b *Budget) exhaust(e *ExhaustedError) *ExhaustedError {
	if b.exhausted.CompareAndSwap(nil, e) {
		b.NoteEvent("budget.exhausted."+e.Resource, e.Limit)
		return e
	}
	return b.exhausted.Load()
}

// charge adds n to the counter, enforcing the limit, the deadline, and
// stickiness, then propagates to the parent.
func (b *Budget) charge(counter *atomic.Int64, limit, n int64, resource string) error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return e
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return b.exhaust(&ExhaustedError{Resource: ResourceDeadline, Limit: int64(b.limits.Deadline)})
	}
	total := counter.Add(n)
	if limit > 0 && total > limit {
		return b.exhaust(&ExhaustedError{Resource: resource, Limit: limit})
	}
	if b.parent != nil {
		if err := b.parent.charge(parentCounter(b.parent, resource), parentLimit(b.parent, resource), n, resource); err != nil {
			var ex *ExhaustedError
			if errors.As(err, &ex) {
				return b.exhaust(ex)
			}
			return err
		}
	}
	return nil
}

func parentCounter(p *Budget, resource string) *atomic.Int64 {
	switch resource {
	case ResourceClasses:
		return &p.classes
	case ResourceRefine:
		return &p.refines
	default:
		return &p.states
	}
}

func parentLimit(p *Budget, resource string) int64 {
	switch resource {
	case ResourceClasses:
		return p.limits.MaxClasses
	case ResourceRefine:
		return p.limits.MaxRefineSteps
	default:
		return p.limits.MaxStates
	}
}

// ChargeStates records the construction of n DFA states.
func (b *Budget) ChargeStates(n int64) error {
	if b == nil {
		return nil
	}
	err := b.charge(&b.states, b.limits.MaxStates, n, ResourceStates)
	if err == nil {
		b.notifyCharge(ResourceStates, n)
	}
	return err
}

// ChargeClasses records the enumeration of n structural classes.
func (b *Budget) ChargeClasses(n int64) error {
	if b == nil {
		return nil
	}
	err := b.charge(&b.classes, b.limits.MaxClasses, n, ResourceClasses)
	if err == nil {
		b.notifyCharge(ResourceClasses, n)
	}
	return err
}

// ChargeRefine records n units of refinement work (AST nodes refined).
func (b *Budget) ChargeRefine(n int64) error {
	if b == nil {
		return nil
	}
	err := b.charge(&b.refines, b.limits.MaxRefineSteps, n, ResourceRefine)
	if err == nil {
		b.notifyCharge(ResourceRefine, n)
	}
	return err
}

// Err reports the budget's current state without charging anything: nil
// while resources remain, the (sticky) exhaustion error once any charge
// failed or the deadline passed.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return e
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return b.exhaust(&ExhaustedError{Resource: ResourceDeadline, Limit: int64(b.limits.Deadline)})
	}
	if b.parent != nil {
		if err := b.parent.Err(); err != nil {
			var ex *ExhaustedError
			if errors.As(err, &ex) {
				return b.exhaust(ex)
			}
			return err
		}
	}
	return nil
}

// Exhausted returns the first exhaustion, or nil while the budget holds.
// Unlike Err it does not re-check the deadline — it only reports what a
// charge or Err already observed.
func (b *Budget) Exhausted() *ExhaustedError {
	if b == nil {
		return nil
	}
	return b.exhausted.Load()
}

// Usage returns a snapshot of the consumed resources.
func (b *Budget) Usage() Usage {
	if b == nil {
		return Usage{}
	}
	u := Usage{
		States:      b.states.Load(),
		Classes:     b.classes.Load(),
		RefineSteps: b.refines.Load(),
	}
	if e := b.exhausted.Load(); e != nil {
		u.Exhausted = e.Error()
	}
	return u
}

// Deadline returns the absolute cutoff and whether one is set.
func (b *Budget) Deadline() (time.Time, bool) {
	if b == nil || b.deadline.IsZero() {
		return time.Time{}, false
	}
	return b.deadline, true
}

type ctxKey struct{}

// NewContext attaches b to the context for FromContext to recover. It
// deliberately does NOT bound the context by the budget's deadline:
// budget exhaustion must degrade (sound-but-loose results), while context
// cancellation is an error — conflating them would turn every deadline
// into a failure. Use Context when cancellation on deadline is wanted.
func NewContext(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext returns the budget attached by NewContext or Context, or
// nil (= unlimited) when none is attached.
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}

// Context attaches b and additionally bounds the context by the budget's
// deadline, for operations that want cooperative cancellation of worker
// pools when time runs out (the workers' partial output is still used).
func (b *Budget) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if b == nil {
		return context.WithCancel(ctx)
	}
	ctx = NewContext(ctx, b)
	if b.deadline.IsZero() {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, b.deadline)
}
