// Command asm370 assembles S/370 text into machine code and back: the
// scratch tool for working on templates and runtime stubs.
//
// Usage:
//
//	asm370 [-d] [file]
//
// Without -d, assembly text (one instruction per line, listing syntax)
// is read from the file or standard input and the encoding printed as
// hex alongside each instruction. With -d, hex bytes are read instead
// and disassembled.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cogg/internal/s370"
)

func main() {
	dis := flag.Bool("d", false, "disassemble hex input")
	flag.Parse()

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	if *dis {
		clean := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == '\t' {
				return -1
			}
			return r
		}, string(src))
		code, err := hex.DecodeString(clean)
		if err != nil {
			fatal(err)
		}
		m := s370.NewMachine(0)
		fmt.Print(s370.DisassembleAll(m, code, 0))
		return
	}

	instrs, err := s370.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	m := s370.NewMachine(0)
	for i := range instrs {
		b, err := m.Encode(nil, &instrs[i])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14X %s\n", b, m.AppendFormat(nil, &instrs[i]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asm370:", err)
	os.Exit(1)
}
