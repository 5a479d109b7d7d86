(** The hls_caller of Figs. 5–7: C operator → scheduled netlist. *)

open Pld_ir

type impl = {
  op : Op.t;
  netlist : Pld_netlist.Netlist.t;
  perf : Sched.perf;
  est_fmax_mhz : float;  (** pre-place-and-route timing estimate *)
}

val compile : Op.t -> impl
(** Deterministic; raises [Invalid_argument] on ill-formed operators. *)

val target_mhz : float
(** The HLS timing target (300 MHz, as in Tab. 3's Vitis rows). *)

val report : impl -> string
(** Human-readable HLS report (area, II, depth, Fmax estimate). *)
