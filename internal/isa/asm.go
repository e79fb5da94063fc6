package isa

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Assemble translates assembly text into a Program. Syntax:
//
//	; full-line or trailing comment (# also works)
//	label:
//	    li   r1, 42
//	    fli  f0, 1.5
//	    faa  r2, 0(r3), r1
//	    beq  r1, r0, done
//	done:
//	    halt
//
// Integer immediates accept decimal and 0x hex; float immediates require
// a '.' or exponent. Branch and jump targets are labels, resolved in a
// second pass.
func Assemble(src string) (*Program, error) {
	p := &Program{Labels: map[string]int{}}
	type patch struct {
		instr int
		label string
		line  int
	}
	var patches []patch

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading labels (possibly several).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return nil, asmErr(lineNo, "bad label %q", label)
			}
			if _, dup := p.Labels[label]; dup {
				return nil, asmErr(lineNo, "duplicate label %q", label)
			}
			p.Labels[label] = len(p.Instrs)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnemonic, rest := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			mnemonic, rest = line[:i], line[i:]
		}
		mnemonic = strings.ToLower(mnemonic)
		op, ok := opByName(mnemonic)
		if !ok {
			return nil, asmErr(lineNo, "unknown mnemonic %q", mnemonic)
		}
		args := splitArgs(rest)
		in, labelArg, err := encode(op, args)
		if err != nil {
			return nil, asmErr(lineNo, "%v", err)
		}
		if labelArg != "" {
			patches = append(patches, patch{len(p.Instrs), labelArg, lineNo})
		}
		p.Instrs = append(p.Instrs, in)
		p.Lines = append(p.Lines, lineNo+1)
	}

	for _, pt := range patches {
		target, ok := p.Labels[pt.label]
		if !ok {
			return nil, asmErr(pt.line, "undefined label %q", pt.label)
		}
		p.Instrs[pt.instr].Imm = int64(target)
	}
	return p, nil
}

// MustAssemble is Assemble that panics on error, for tests and embedded
// programs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func asmErr(line int, format string, args ...interface{}) error {
	return fmt.Errorf("asm line %d: %s", line+1, fmt.Sprintf(format, args...))
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		digit := r >= '0' && r <= '9'
		if !alpha && !(digit && i > 0) {
			return false
		}
	}
	return true
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseReg parses register N of the file named by its prefix letter
// ('r' or 'f', either case): decimal digits only, no sign.
func parseReg(s string, file byte) (int, error) {
	if len(s) < 2 || s[0]|0x20 != file {
		kind := "integer"
		if file == 'f' {
			kind = "float"
		}
		return 0, fmt.Errorf("expected %s register, got %q", kind, s)
	}
	n, err := strconv.ParseUint(s[1:], 10, 8)
	if err != nil || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return int(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "imm(rN)" or "(rN)".
func parseMem(s string) (imm int64, reg int, err error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("expected mem operand imm(reg), got %q", s)
	}
	if open > 0 {
		imm, err = parseImm(s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	reg, err = parseReg(s[open+1:len(s)-1], 'r')
	return imm, reg, err
}

// encode builds one Instr from parsed arguments, operand by operand as
// the opcode's row lists them; labelArg is the branch target to patch in
// pass two, if any.
func encode(op Op, args []string) (in Instr, labelArg string, err error) {
	in.Op = op
	want := rows[op].args
	if len(args) != len(want) {
		return in, "", fmt.Errorf("%s expects %d operands, got %d", op, len(want), len(args))
	}
	for i, o := range want {
		switch o {
		case oRd, oRs, oRt:
			*in.reg(o - oRd), err = parseReg(args[i], 'r')
		case oFd, oFs, oFt:
			*in.reg(o - oFd), err = parseReg(args[i], 'f')
		case oImm:
			in.Imm, err = parseImm(args[i])
		case oFImm:
			in.FImm, err = strconv.ParseFloat(args[i], 64)
		case oMem:
			in.Imm, in.Rs, err = parseMem(args[i])
		case oLabel:
			if labelArg = args[i]; !isIdent(labelArg) {
				err = fmt.Errorf("bad label %q", labelArg)
			}
		}
		if err != nil {
			return in, "", err
		}
	}
	return in, labelArg, nil
}

// reg addresses the register field a register operand kind (less its
// file's base: oRd or oFd) selects.
func (i *Instr) reg(field operand) *int {
	return [...]*int{&i.Rd, &i.Rs, &i.Rt}[field]
}
