; jr off the program after a private run: past its end on PE 0, before
; its start on the others.
        rdpe r1
        li   r2, 0
        li   r3, 10
loop:   addi r2, r2, 1
        blt  r2, r3, loop
        li   r4, 1000
        beq  r1, r0, far
        li   r4, -3
far:    jr   r4
        halt
