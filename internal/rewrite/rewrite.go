// Package rewrite implements the first-order case of the trichotomy
// (Section 5 of Koutris & Wijsen, PODS 2015): when the attack graph of q
// is acyclic, CERTAINTY(q) is decided by the recursion of Lemmas 9/10 —
// repeatedly pick an unattacked atom, guess its block, and demand that
// every fact of the block extends to a certain residue query. The package
// provides both the direct evaluator and the symbolic first-order
// rewriting (Example 5 style) with its own model-checking evaluator.
package rewrite

import (
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
)

// Certain decides CERTAINTY(q) for queries whose attack graph is acyclic:
// compile the elimination order, then walk it over d. It returns an
// error when the attack graph has a cycle (use the ptime or conp engines
// there) or when d stores a relation of q under another signature.
func Certain(q query.Query, d *db.DB) (bool, error) {
	el, err := CompileEliminator(q)
	if err != nil {
		return false, err
	}
	return el.CertainChecked(match.NewIndex(d), nil, nil)
}
