//go:build invariants

package core

// invariants turns on the engine's soundness assertions: builds tagged
// invariants (go test -tags invariants) panic with an "invariant:" message
// where DESIGN.md's arguments say a state cannot occur. Untagged builds
// compile every check away.
const invariants = true
