// Package lib is the subject of the gate's negative control: half of it is
// reachable from cmd/tool, the other half from nothing.
package lib

import "fmt"

// Limit is used by the command.
const Limit = 3

// Kept is reachable through Used; its String is reachable only as a
// fmt.Stringer.
type Kept struct{ n int }

func (k *Kept) String() string { return fmt.Sprint(k.n + seed) }

var seed = 1

// Used is called by the command.
func Used() *Kept { return &Kept{n: Limit} }

func unreferenced() int { return spare }

// orphan is a method nothing calls and no interface asks for.
func (k *Kept) orphan() {}

// lonely is used only by idle, which nothing uses.
type lonely struct{}

// spare is used only by unreferenced.
const spare = 7

// idle is a variable nothing reads.
var idle lonely
