(** The work-unit cost model: how many modeled seconds a tool phase
    took.

    Every phase's modeled time is the work its artifact records, times a
    per-unit constant, plus the fixed per-invocation overheads of the
    vendor backend. The work units are deterministic counts kept by the
    tools (SA moves, heap pops, cells, frame bytes, instructions), so
    modeled seconds are a pure function of the artifact: identical
    across runs, hosts and [-j] settings. The constants were fitted once
    to the in-tree algorithms' measured rates; DESIGN.md §7 lists them
    and how they were fitted. This is the only module that turns work
    into seconds. *)

val o0_overhead : float
(** Softcore flow: firmware packing and page load per operator. *)

val o1_overhead : float
(** Page-scoped backend context load (the abstract shell). *)

val o3_overhead : float
(** Monolithic backend context load (the full shell). *)

val hls : Pld_hls.Hls_compile.impl -> float
(** Scheduling: statements of the operator body. *)

val syn : Pld_hls.Hls_compile.impl -> float
(** Synthesis: cells of the operator netlist. *)

val pack : Pld_netlist.Netlist.t -> float
(** Netlist assembly before P&R (the leaf-interface packer at -O1, the
    merge and FIFO stitching at -O3): cells of the assembled netlist. *)

val place : Pld_pnr.Pnr.result -> float
(** SA moves evaluated, plus a set-up term per region tile. *)

val route : Pld_pnr.Pnr.result -> float
(** Dijkstra heap pops, plus the per-iteration congestion sweep over
    every routing edge. *)

val sta : Pld_pnr.Pnr.result -> float
(** Timing arcs: one per cell and one per net sink. *)

val pnr : Pld_pnr.Pnr.result -> float
(** [place + route + sta]: the p&r column of Table 2. *)

val bitgen : Pld_pnr.Pnr.result -> float
(** Frame bytes written, plus one stamp per placed cell. *)

val riscv : Pld_riscv.Codegen.program -> float
(** RV32 code generation: instructions emitted. *)
