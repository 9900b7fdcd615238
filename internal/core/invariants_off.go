//go:build !invariants

package core

// invariants is off in production builds; see invariants_on.go.
const invariants = false
