//go:build race

package server

// raceEnabled reports a race-detector build. The detector changes what
// the standard library allocates: under it, a bytes.Buffer's first grow
// allocates twice the bytes it keeps.
const raceEnabled = true
