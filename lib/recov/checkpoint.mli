(** Crash-consistent superstep checkpoints: the state a BSP superstep
    loop keeps across supersteps, in a format that reads back
    bit-identically.  {!Ksurf_dur.Torture}'s checkpoint writer path
    crashes its writes at every point and requires each to read back
    as the old or the new state.

    On disk: a versioned header, an FNV-1a checksum of the payload, and
    one [key value] line per field, with floats as IEEE-754 bit
    patterns in hex.  Written via {!Ksurf_util.Fileio.write_atomic}, so
    a crash mid-write cannot corrupt the previous checkpoint. *)

type rejoin = {
  rj_rank : int;
  rj_superstep : int;  (** superstep at which the rank re-enters *)
  rj_incident : int;  (** episode id, threaded into probe events *)
  rj_died_at : int;  (** superstep of the death, for catch-up cost *)
}

type state = {
  superstep : int;  (** next superstep to execute *)
  runtime_ns : float;  (** accumulated runtime, barriers included *)
  membership : int list;  (** sorted live ranks *)
  rejoins : rejoin list;  (** restarted ranks awaiting re-admission *)
  incidents : int;  (** crash/recovery episodes allocated so far *)
  prng_state : int64;  (** PRNG stream position… *)
  prng_seed : int;  (** …and seed ({!Ksurf_util.Prng.restore}) *)
  crashes : int;
  restarts : int;
  backups : int;
  deaths : int;
  transitions : int;
  checkpoints : int;  (** checkpoints written so far, this one included *)
  degraded : bool;
}

val write : path:string -> state -> unit
(** Atomic write; raises {!Ksurf_util.Fileio.Io_error} on I/O failure. *)

val read : path:string -> (state, string) result
(** Parse and verify (header, checksum, every field).  All corruption
    modes return [Error] with a description; nothing raises. *)
