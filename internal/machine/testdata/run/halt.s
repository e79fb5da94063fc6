; Private runs of different lengths on each PE end in halt.
        rdpe r1
        li   r2, 0
        li   r3, 7
        mul  r3, r3, r1
        addi r3, r3, 5
loop:   addi r2, r2, 1
        sw   r2, 0(r2)
        lw   r4, 0(r2)
        blt  r2, r3, loop
        halt
