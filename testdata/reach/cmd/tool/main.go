// Command tool is the root of the scratch module TestReachableReportsDeadCode
// runs the dead-code gate on.
package main

import (
	"fmt"

	"scratch/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Limit)
}
