// Command fbufvet is the fbuf protocol invariant checker. It runs two
// ways:
//
//	go vet -vettool=$(pwd)/fbufvet ./...   # as a vettool (preferred)
//	fbufvet ./...                          # standalone, from the module
//
// It bundles five analyzers — fbuflife, errflow, detlint, obshook,
// lockorder — each individually switchable (e.g. `go vet
// -vettool=... -detlint=false`). The -json flag emits machine-readable
// diagnostics; -sarif writes a SARIF 2.1.0 document to stdout (one
// combined document in standalone mode, for CI artifact upload).
// See internal/analysis for what each checks and why.
package main

import "fbufs/internal/analysis"

func main() {
	analysis.VetMain()
}
