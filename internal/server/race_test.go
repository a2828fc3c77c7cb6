//go:build race

package server

// raceEnabled reports a -race build. The race detector allocates on
// behalf of the code it instruments, so a bound on what a call allocates
// holds only in a plain build; TestReadBodyAllocatesTheBodyOnce checks
// its bound there and still checks its 413 under -race.
const raceEnabled = true
