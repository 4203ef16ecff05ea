(** Host-I/O fault plans, in the kfault plan-language style.

    A plan is a named list of typed actions over the host I/O op
    stream ({!Ksurf_util.Iohook}): transient errno rates, an [ENOSPC]
    onset/clear window, hard [EIO], torn writes, silently-dropped
    fsyncs, and crash-at-op-k.  Plans are values built in code: they
    scale with a dose knob, like {!Ksurf_fault.Plan}, and compile
    (with a seed) into a deterministic {!Faultio} handler. *)

type action =
  | Transient of { rate : float; eintr_share : float }
      (** each op fails with [EINTR]/[EAGAIN] at [rate]; [eintr_share]
          of those are [EINTR], the rest [EAGAIN].  Absorbed by
          Fileio's bounded retry. *)
  | Enospc_window of { from_op : int; until_op : int }
      (** every space-consuming op (open/write/rename/mkdir) in
          [[from_op, until_op)] fails with [ENOSPC]; the disk "clears"
          at [until_op]. *)
  | Hard_eio of { rate : float }  (** unretryable [EIO] at [rate] *)
  | Torn_write of { rate : float; keep : float }
      (** a write tears at [rate], keeping [keep] of its bytes, and
          the process dies — power cut mid-write *)
  | Fsync_drop of { rate : float }
      (** an fsync (file or directory) silently does nothing at
          [rate] — the lying-disk failure mode *)
  | Crash_at of { op : int }
      (** simulated process death at absolute op index [op] *)

type t = { name : string; actions : action list }

val scale : float -> t -> t
(** Dose knob, kfault semantics: rates multiply by [k] (clamped to
    [0,1]), the ENOSPC window stretches its length by [k], crash
    schedules apply verbatim for [k > 0] and are dropped at [k = 0] —
    and a zero dose injects literally nothing. *)

val io_mixed : t
(** ["io-mixed"], the torture grid's plan: transient errnos, one
    [ENOSPC] window (ops 40 to 80), torn writes, dropped fsyncs and
    rare hard [EIO], sized so that at dose 1 a run of a few hundred
    ops hits every recovery path. *)
