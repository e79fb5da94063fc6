; A locked register is used right after a private run: once before its
; reply can have come back on a real network, once long after.
        rdpe r1
        li   r2, 100
        add  r2, r2, r1
        lds  r3, 0(r2)
        addi r4, r1, 1
        add  r6, r3, r4
        lds  r7, 8(r2)
        flds f1, 16(r2)
        li   r4, 0
        li   r5, 40
spin:   addi r4, r4, 1          ; a long private run
        sw   r4, 0(r4)
        blt  r4, r5, spin
        add  r6, r7, r4         ; first use of r7
        fadd f2, f1, f1         ; and of f1
        sts  r6, 32(r2)
        fsts f2, 40(r2)
        halt
