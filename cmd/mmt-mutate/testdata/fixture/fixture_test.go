package fixture

import "testing"

func TestAccept(t *testing.T) {
	if Accept(7) != nil || Accept(1) == nil {
		t.Fatal("Accept does not check its tag")
	}
	if Later(9) != nil {
		t.Fatal("Later refuses its tag")
	}
}
