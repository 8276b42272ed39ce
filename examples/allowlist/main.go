// Generic allowlist protection (paper Section IV-C): ROLoad is not
// limited to control-flow data. This example protects a *runtime-built*
// allowlist — a table of approved configuration records assembled
// during startup — using the kernel's key-carrying mmap/mprotect API
// directly from assembly:
//
//  1. mmap a page read-write,
//  2. write the allowlist entries,
//  3. mprotect the page read-only with a private key (sealing it),
//  4. fetch every entry used by the "sensitive operation" with ld.ro.
//
// A corrupted pointer can then only ever feed sealed, typed entries to
// the sensitive operation; pointing it at attacker-controlled writable
// data faults immediately.
//
// Run with: go run ./examples/allowlist
package main

import (
	"context"
	"fmt"
	"log"

	"roload/internal/asm"
	"roload/internal/core"
	"roload/internal/kernel"
)

// The program seals a 3-entry allowlist with key 321, reads an entry
// back through ld.ro (prints it), then simulates the attack: it points
// the "current entry" pointer at a writable forgery and tries again.
const program = `
_start:
	# 1. mmap(len=4096, prot=RW)
	li a0, 0
	li a1, 4096
	li a2, 3               # PROT_READ|PROT_WRITE
	li a7, 222
	ecall
	mv s1, a0              # s1 = allowlist page

	# 2. write approved records 1001, 1002, 1003
	li t0, 1001
	sd t0, 0(s1)
	li t0, 1002
	sd t0, 8(s1)
	li t0, 1003
	sd t0, 16(s1)

	# 3. seal: mprotect(page, 4096, PROT_READ | key<<16), key = 321
	mv a0, s1
	li a1, 4096
	li a2, 0x1410001       # PROT_READ | 321<<16
	li a7, 226
	ecall
	bnez a0, fail

	# 4. the sensitive operation: consume an allowlist entry via ld.ro
	addi s2, s1, 8         # pointer to entry #1
	ld.ro a0, (s2), 321
	call print_dec         # prints 1002

	# 5. the attack: repoint s2 at a writable forgery and retry.
	#    The ld.ro below faults: the page is writable and unkeyed.
	la s2, forged
	li t0, 9999
	sd t0, 0(s2)
	ld.ro a0, (s2), 321    # << blocked here
	call print_dec         # never reached

	li a0, 0
	li a7, 93
	ecall
fail:
	li a0, 1
	li a7, 93
	ecall

# print_dec(a0): minimal decimal printer + newline
print_dec:
	addi sp, sp, -48
	sd ra, 40(sp)
	li t0, 10
	sb t0, 31(sp)
	addi t1, sp, 31
pd_loop:
	li t0, 10
	remu a2, a0, t0
	addi a2, a2, 48
	addi t1, t1, -1
	sb a2, 0(t1)
	divu a0, a0, t0
	bnez a0, pd_loop
	addi a2, sp, 32
	sub a2, a2, t1
	mv a1, t1
	li a0, 1
	li a7, 64
	ecall
	ld ra, 40(sp)
	addi sp, sp, 48
	ret

	.data
forged: .quad 0
`

func main() {
	img, err := asm.Assemble(program, asm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := core.RunWith(context.Background(), img, core.SysFull, core.RunOptions{MaxSteps: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %q\n", res.Stdout)
	switch {
	case res.ROLoadViolation:
		fmt.Printf("attack on the sealed allowlist BLOCKED: ld.ro fault at %#x "+
			"(want key %d, got key %d)\n", res.FaultVA, res.FaultWantKey, res.FaultGotKey)
	case res.Exited:
		fmt.Printf("unexpected: program exited %d without a violation\n", res.Code)
	default:
		fmt.Printf("killed by %v\n", res.Signal)
	}

	// The same binary on the processor-only system shows why kernel
	// support matters: mprotect silently drops the key there, so even
	// the LEGITIMATE ld.ro faults.
	res2, _, err := core.RunWith(context.Background(), img, core.SysProcessorOnly, core.RunOptions{MaxSteps: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\non the processor-only system (stock kernel): killed by %v — \n"+
		"  keys never reach the page tables, so hardened binaries need the\n"+
		"  modified kernel too (paper Section III-B)\n", res2.Signal)
	_ = kernel.SysMprotect // (documented API: see internal/kernel)
}
