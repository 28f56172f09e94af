package simba_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignNamesWhatExists keeps DESIGN.md a description of this tree:
// every Test…/Fuzz…/Example… identifier it cites in backticks must be a
// func in some *_test.go under the repository (benchmark/ included), and
// no production file of internal/hub may grow past the size one stage of
// the alert path needs.
func TestDesignNamesWhatExists(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const maxLines = 600
	defined := make(map[string]bool)
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && !strings.HasPrefix(filepath.ToSlash(path), "internal/hub/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if isTest {
			for _, m := range funcRE.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
		} else if n := bytes.Count(src, []byte("\n")); n > maxLines {
			t.Errorf("%s has %d lines, over %d: split it by stage", path, n, maxLines)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`((?:Test|Fuzz|Example)[A-Z]\\w*)`").FindAllSubmatch(design, -1)
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no test: the guarantees in §8 name their guards")
	}
	for _, m := range cited {
		if name := string(m[1]); !defined[name] {
			t.Errorf("DESIGN.md cites `%s`, which no *_test.go defines", name)
		}
	}
}
