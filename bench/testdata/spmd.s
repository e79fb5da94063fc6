; spmd.s — the SPMD kernel of the guest-* and serve-lifecycle workloads.
; bench/guest.go fills the {{...}} fields from the seed; the simulator
; sees only the resulting text. Every PE runs the same loop:
;
;   - local arithmetic and one private-memory read-modify-write,
;   - one cached read-modify-write (clds/csts) of a word in the PE's own
;     region of shared memory, {{CBASE}} + pe*{{SPAN}} .. + {{CWORDS}},
;   - every 64th iteration (i mod 64 == {{PHASE}}): flush and release the
;     block just written, then one fetch-and-add on the shared counter.
;
; The last cflu leaves the whole region in central memory, so after the
; run word w of every region holds the number of i < {{ITERS}} with
; i mod {{CWORDS}} == w, and M[{{COUNTER}}] = PEs * |{i : i mod 64 == {{PHASE}}}|.

        rdpe r1
        li   r2, {{ITERS}}
        li   r3, 0              ; i
        li   r4, {{MUL}}
        li   r5, {{ADD}}
        li   r6, 0              ; checksum of the private stream
        li   r7, {{COUNTER}}
        li   r8, 1
        li   r9, {{SPAN}}
        mul  r9, r9, r1
        addi r9, r9, {{CBASE}}  ; this PE's cached region
        li   r10, {{LMASK}}
        li   r11, {{CWORDS}}
        li   r12, 63
        li   r13, {{PHASE}}
        li   r23, 4             ; cache block size in words
loop:   mul  r14, r3, r4
        add  r14, r14, r5
        and  r15, r14, r10
        lw   r16, 0(r15)
        add  r16, r16, r14
        sw   r16, 0(r15)
        xor  r6, r6, r16
        mod  r17, r3, r11
        add  r17, r17, r9
        clds r18, 0(r17)
        add  r18, r18, r8
        csts r18, 0(r17)
        and  r19, r3, r12
        bne  r19, r13, next
        mod  r22, r17, r23
        sub  r22, r17, r22      ; block base (regions are block-aligned)
        addi r20, r22, 4
        cflu r22, r20
        crel r22, r20
        faa  r21, 0(r7), r8
next:   addi r3, r3, 1
        blt  r3, r2, loop
        add  r20, r9, r11
        cflu r9, r20
        halt
