(** Cycle and event accounting for the simulated processor.

    The paper reports no absolute performance numbers; what matters for
    reproducing its claims is the {e relative} cost of the different
    reference and control-transfer kinds, and in particular how many
    supervisor interventions (traps) each ring-crossing flavour incurs.
    Every simulated machine carries one [t]; the CPU and the operating
    system substrate charge cycles and bump event counters through this
    interface, and the benches read them back out.

    Each counter is one constructor of {!field}, one name in the
    exports and one field of {!snapshot}, all in the same order. *)

type field =
  | Cycles
  | Instructions
  | Memory_reads
  | Memory_writes
  | Sdw_fetches
  | Indirections
  | Traps
  | Calls_same_ring
  | Calls_downward
  | Calls_upward
  | Returns_same_ring
  | Returns_upward
  | Returns_downward
  | Gatekeeper_entries
  | Descriptor_switches
  | Access_violations
  | Ptw_fetches
  | Page_faults
  | Page_evictions
  | Channel_ops  (** SIOC/SIOT started; billed against an I/O quota. *)
  | Sdw_cache_hits  (** Host-side caches: no effect on modeled cycles. *)
  | Sdw_cache_misses
  | Sdw_cache_evictions
  | Ptw_tlb_hits
  | Ptw_tlb_misses
  | Ptw_tlb_evictions
  | Icache_hits
  | Icache_misses
  | Icache_evictions
  | Injected  (** Faults delivered, then what the kernel did about them. *)
  | Retried
  | Recovered
  | Quarantined
  | Degraded
  | Snapshots_written
      (** Counts the capture it is in; [Restores] and
          [Journal_replays_skipped] are session-local. *)
  | Restores
  | Restore_audit_rejections
  | Journal_replays_skipped
  | Watchdog_tripped
  | Events_dropped  (** What tracing discarded; moves only when on. *)
  | Events_sampled_out
  | Spans_sampled_out

type t

val create : unit -> t
val reset : t -> unit

val bump : t -> field -> unit
(** Add one to a counter.  Allocates nothing. *)

val get : t -> field -> int

val charge : t -> int -> unit
(** [charge c n] adds [n] to [Cycles]. *)

val cycles : t -> int
val instructions : t -> int

(** {1 Snapshots} *)

(** A read-out of every counter, one field per {!field}. *)
type snapshot = private {
  cycles : int;
  instructions : int;
  memory_reads : int;
  memory_writes : int;
  sdw_fetches : int;
  indirections : int;
  traps : int;
  calls_same_ring : int;
  calls_downward : int;
  calls_upward : int;
  returns_same_ring : int;
  returns_upward : int;
  returns_downward : int;
  gatekeeper_entries : int;
  descriptor_switches : int;
  access_violations : int;
  ptw_fetches : int;
  page_faults : int;
  page_evictions : int;
  channel_ops : int;
  sdw_cache_hits : int;
  sdw_cache_misses : int;
  sdw_cache_evictions : int;
  ptw_tlb_hits : int;
  ptw_tlb_misses : int;
  ptw_tlb_evictions : int;
  icache_hits : int;
  icache_misses : int;
  icache_evictions : int;
  injected : int;
  retried : int;
  recovered : int;
  quarantined : int;
  degraded : int;
  snapshots_written : int;
  restores : int;
  restore_audit_rejections : int;
  journal_replays_skipped : int;
  watchdog_tripped : int;
  events_dropped : int;
  events_sampled_out : int;
  spans_sampled_out : int;
  raw : int array;  (** The counters in {!field} order.  Never mutate it. *)
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Overwrite every live counter with the snapshot's values. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** The per-field difference, for measuring a region of execution. *)

val add : snapshot -> snapshot -> snapshot
(** The per-field sum: commutative and associative, so per-shard or
    per-run snapshots fold into one total in any order. *)

val fields : snapshot -> (string * int) list
(** Every counter as [(name, value)], in {!field} order.  The metrics
    exporters and the snapshot codec iterate this. *)

val of_fields : (string * int) list -> (snapshot, string) result
(** Inverse of {!fields}.  The names must be {!fields}'s exactly, in
    order; otherwise the error names every unknown and missing field,
    so counter-set drift between builds is reported, never dropped. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
