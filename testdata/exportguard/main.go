// Command fixture reaches Label.Name directly and Dog.Speak by interface.
package main

import (
	"fmt"

	"fixture/internal/animal"
)

func main() {
	var s animal.Speaker = animal.Dog{}
	fmt.Println(s.Speak(), animal.Label{}.Name())
}
