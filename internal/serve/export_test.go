package serve

// What infer_memo_test.go needs of the handler's inside. It is an external
// test (package serve_test) because its schemas come from internal/load,
// which imports this package.

const (
	InferMemoEntries  = inferMemoEntries
	MaxInferMemoEntry = maxInferMemoEntry
	D1Text            = d1Text // the paper's D1 (Example 3.1)
)

var InferStatusFor = inferStatusFor

// InferMemoLen is the number of answers the inference memo holds.
func (h *Handler) InferMemoLen() int { return h.inferred.Len() }
