// Package dead is the fixture that shows TestProductionAPIHasProductionCallers
// fires: nothing calls Planted, and Recursive only calls itself.
package dead

import "fmt"

// Level has a String method that nothing calls directly; callers reach it
// through fmt.Stringer.
type Level int

func (l Level) String() string { return fmt.Sprint(int(l)) }

// Planted has no caller.
func Planted() int { return helper() }

func helper() int { return 1 }

// Recursive has no caller but itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
