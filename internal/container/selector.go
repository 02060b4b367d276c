// Package container holds the allocation-free queue the cycle engine's
// schedulers are built on: a fixed-capacity FIFO ring (Ring) kept in age
// order, whose head is the oldest entry.
//
// Selection speaks one vocabulary: a visit callback examines entries
// oldest-first and answers with a Verdict. This is the software shape of a
// select circuit — entries raise requests, the grant logic picks winners in
// priority order — and the ring's age-ordered selects pick through it:
// InO's head-sequential issue, the CASINO cascade windows and its in-order
// IQ, and Ballerino's S-IQ window.
package container

// Verdict is a visit callback's decision about one examined entry.
type Verdict uint8

const (
	// Keep leaves the entry where it is and continues the walk (for
	// strictly in-order disciplines such as Ring.SelectOldest, a kept
	// head blocks everything younger, ending the walk).
	Keep Verdict = iota
	// Take removes the entry from the container — a grant, or a pass to
	// another queue — and continues the walk.
	Take
	// Stop leaves the entry where it is and ends the walk.
	Stop
)
