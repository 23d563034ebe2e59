// Command fixture plants dead code for the reachability checker's
// self-test, which must report exactly Unused and square.perimeter.
package main

type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side } // reached through shape only

func (s square) perimeter() int { return 4 * s.side } // no caller

func Unused() {} // no caller

func main() { println(shape(square{side: 2}).area()) }
