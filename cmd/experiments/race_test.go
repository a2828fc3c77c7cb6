//go:build race

package main

// raceEnabled reports a -race build. The paper-scale drift gate and the
// seed sweep skip under it: they run no code the race legs do not
// already cover, ten times slower, so scripts/check.sh and CI run them
// in a plain leg instead.
const raceEnabled = true
