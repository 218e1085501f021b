// Package unknowndir holds a suppression directive naming an analyzer
// outside the run set: the audit must report it for deletion rather
// than pass it unjudged.
package unknowndir

import "vmprim/internal/hypercube"

// Rank carries a directive for an analyzer that no longer exists.
func Rank(p *hypercube.Proc) int {
	//lint:allow collorder the rank is returned, never used as a dimension
	return p.ID()
}
