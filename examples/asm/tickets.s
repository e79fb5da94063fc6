; tickets.s — every PE draws a ticket from a shared counter with a single
; fetch-and-add (the paper's shared-array-index idiom, §2.2) and records
; its PE number in the slot the ticket selects.
;
;   go run ./cmd/ultrasim -pes 8 -dump 500:509 examples/asm/tickets.s
;
; Shared memory: M[500] = ticket counter, M[501+t] = PE that drew ticket t.
;
; Model-checked properties: every ticket is drawn exactly once, so the
; counter ends at the PE count and the claimed slots hold each PE number
; exactly once (their sum is 0+1+...+(npes-1); unclaimed slots stay 0).
; The slot-sum final names three slots, so it is stated for N <= 3 only:
; at -pes 8 it does not hold (slots 504..508 are not in the sum), and the
; checker caps the PE count at 3.
;mc: bound 3
;mc: final M[500] == npes
;mc: final M[501] + M[502] + M[503] == npes*(npes-1)/2

        li   r1, 500        ; counter address
        li   r2, 1
        faa  r3, 0(r1), r2  ; r3 = my ticket (combines in the network)
        rdpe r4             ; r4 = my PE number
        addi r5, r3, 501
        sts  r4, 0(r5)      ; M[501 + ticket] = PE
        halt
