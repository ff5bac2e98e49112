package lib

import "fmt"

// Live is reached from the public package.
func Live() string { return fmt.Sprint(kind(1)) }

// Dead has no caller.
func Dead() int { return helper() }

// helper is called only from Dead.
func helper() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() {}

type kind int

// String is called only through fmt.Stringer.
func (kind) String() string { return "kind" }

// shape is an interface the module declares.
type shape interface{ area() float64 }

type square struct{}

// area is called only through shape.
func (square) area() float64 { return 1 }

var shapes = []shape{square{}}

// table is set by a var initialiser.
var table = fromVar()

func fromVar() int { return 2 }

func init() { fromInit() }

// tally is reached from fromInit, which reads read and only writes
// written.
type tally struct {
	read    int
	written int
}

func fromInit() {
	t := tally{read: 1}
	t.written = t.read
	t.written++
}
