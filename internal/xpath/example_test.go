package xpath_test

import (
	"fmt"
	"log"

	"repro/internal/xpath"
)

// ExampleParse shows the X_R syntax accepted by the parser.
func ExampleParse() {
	q, err := xpath.Parse(`class[cno/text() = "CS331"]/(type/regular/prereq/class)*`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(xpath.String(q))
	// Output:
	// class[cno/text() = "CS331"]/((type/regular/prereq/class))*
}
