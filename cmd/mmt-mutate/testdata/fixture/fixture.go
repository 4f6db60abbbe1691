// Package fixture is mmt-mutate's test package: one check called twice.
package fixture

import "errors"

// VerifyPath refuses a tag that is not want.
func VerifyPath(tag, want uint64) error {
	if tag != want {
		return errors.New("fixture: bad tag")
	}
	return nil
}

func Accept(tag uint64) error { return VerifyPath(tag, 7) } // its test feeds it a bad tag

func Later(tag uint64) error { return VerifyPath(tag, 9) } // no test does
