// Package stalev4 is the stale-suppression fixture for enumswitch: a
// directive that suppresses nothing and must be reported.
package stalev4

// Level is the fixture's enum.
type Level int

const (
	Low Level = iota
	High
)

// pick covers every Level, so the directive is stale.
func pick(l Level) int {
	//lint:ignore enumswitch this switch is already exhaustive
	switch l {
	case Low:
		return 0
	case High:
		return 1
	}
	return -1
}
