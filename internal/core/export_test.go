package core

// Hooks for the external test package (core_test), which can import
// internal/validate; validate imports core, so in-package tests cannot.

// SetSerialBelow overrides the fast-path bound (see Engine.serialBelow).
func (e *Engine) SetSerialBelow(bound int64) { e.serialBelow = bound }

// TwoPhase reports whether top-down cohort levels bin (Engine.twoPhase).
func (e *Engine) TwoPhase() bool { return e.twoPhase }

// SerialLevelWork is the shipped fast-path bound for two or more workers.
const SerialLevelWork = serialLevelWork

// UnpackDP splits a DP word (PackDP's inverse).
func UnpackDP(dp uint64) (parent, depth uint32) {
	return uint32(dp >> 32), uint32(dp)
}
