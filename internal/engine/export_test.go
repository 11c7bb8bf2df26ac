package engine

// ReferenceEval hands the brute-force oracle to the external differential
// test, which cannot live in this package: it draws its documents from
// internal/load, which imports the engine.
var ReferenceEval = referenceEval
