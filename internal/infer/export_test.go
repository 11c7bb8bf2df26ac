package infer

import (
	"context"

	"repro/internal/dtd"
	"repro/internal/sdtd"
	"repro/internal/xmas"
)

// What the external tests of this directory (package infer_test, which may
// import internal/load where this package's own tests may not) need of the
// package's insides.

// The paper's running examples.
const D1Text, D11Text, Q2Text, Q3Text = d1Text, d11Text, q2Text, q3Text

// Specialized is the s-DTD InferContext hands to Normalize.
func Specialized(q *xmas.Query, src *dtd.DTD) (*sdtd.SDTD, error) {
	return newInferencer(context.Background(), q, src).specialized()
}
