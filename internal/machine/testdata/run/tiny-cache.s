; Run on a 1-set, 1-way cache of 2-word blocks: every other block evicts
; the line, and cflu and crel run every eighth iteration.
        rdpe r1
        li   r9, 64
        mul  r9, r9, r1
        addi r9, r9, 200        ; this PE's region
        li   r2, 0
        li   r3, 24
        li   r8, 6
        li   r10, 7
loop:   mod  r4, r2, r8
        add  r4, r4, r9
        clds r5, 0(r4)
        addi r5, r5, 1
        csts r5, 0(r4)
        clds r6, 1(r4)
        addi r2, r2, 1
        and  r7, r2, r10
        bne  r7, r0, next
        addi r11, r9, 8
        cflu r9, r11
        crel r9, r11
next:   blt  r2, r3, loop
        addi r11, r9, 8
        cflu r9, r11
        halt
