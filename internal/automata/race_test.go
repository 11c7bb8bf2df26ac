//go:build race

package automata

func init() { raceEnabled = true }
