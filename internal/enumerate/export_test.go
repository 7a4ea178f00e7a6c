package enumerate

import (
	"testing"

	"repro/internal/relschema"
)

// CheckCandidate lends the referee to this directory's external tests,
// which derive their candidates through internal/realize, an importer of
// this package. It instantiates the candidate and holds the search to the
// reference at the budget.
func CheckCandidate(t testing.TB, schema *relschema.Schema, instances []Instance, budget int) {
	t.Helper()
	txns, err := instantiateAll(schema, instances)
	if err != nil {
		t.Fatalf("candidate does not instantiate: %v", err)
	}
	checkSearch(t, schema, txns, budget)
}
