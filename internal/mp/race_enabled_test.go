//go:build race

package mp

func init() { raceEnabled = true }
