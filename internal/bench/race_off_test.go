//go:build !race

package bench

// raceEnabled mirrors the race detector state; the plan-content pin runs
// only its Table I part under -race, where generation is many times slower.
const raceEnabled = false
