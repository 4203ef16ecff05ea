(* Completed-cell journal: a small file recording which cells of a
   sweep have already completed, so a run that dies can skip them when
   it starts again.  The ledger's partitioned-sweep workload and the
   parallel-sweep gate journal their cells through it.
   Cells are free-form string keys (e.g. "varbench:1").  Each line
   carries its own FNV-1a checksum, so a line half-written by a dying
   process is recognised and dropped on load instead of poisoning the
   restart.  Persists are atomic (temp + rename + fsync).

   Membership is a hashtable (O(1) per [record]/[mem]; the original
   [List.mem] made a sweep of n cells O(n^2)), and persists are
   batched: the file is rewritten every [flush_every] newly recorded
   cells and on {!flush} (which sweeps call when they finish), not on
   every [record].  A crash mid-sweep therefore loses at most
   [flush_every - 1] cells — they are simply recomputed on restart; the
   journal is a cache of completed work, never the source of truth.

   A mutex guards all state, making the journal the single funnel
   through which parallel sweep workers (Ksurf_par.Pool) record
   completions: cells complete in nondeterministic order under
   parallelism, but skipping is by set membership, so order never
   matters. *)

module Fileio = Ksurf_util.Fileio
module Stable_hash = Ksurf_util.Stable_hash

let magic = "ksurf-journal v1"

let default_flush_every = 8

type t = {
  path : string;
  lock : Mutex.t;
  seen : (string, unit) Hashtbl.t;
  mutable cells_rev : string list;
  mutable unflushed : int;  (* recorded since the last persist *)
  flush_every : int;
}

let cells t =
  Mutex.lock t.lock;
  let l = List.rev t.cells_rev in
  Mutex.unlock t.lock;
  l

let mem t key =
  Mutex.lock t.lock;
  let hit = Hashtbl.mem t.seen key in
  Mutex.unlock t.lock;
  hit

let parse_line line =
  (* "cell <hex-checksum> <key>"; the key may itself contain spaces. *)
  match String.split_on_char ' ' line with
  | "cell" :: sum :: rest when rest <> [] ->
      let key = String.concat " " rest in
      let declared = int_of_string_opt ("0x" ^ sum) in
      if declared = Some (Stable_hash.string key) then Some key else None
  | _ -> None

let make ?(flush_every = default_flush_every) ~path cells =
  let seen = Hashtbl.create 64 in
  let cells =
    List.filter
      (fun key ->
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      cells
  in
  {
    path;
    lock = Mutex.create ();
    seen;
    cells_rev = List.rev cells;
    unflushed = 0;
    flush_every = max 1 flush_every;
  }

let load ?flush_every ~path () =
  if not (Sys.file_exists path) then make ?flush_every ~path []
  else
    match Fileio.read_lines path with
    | [] -> make ?flush_every ~path []
    | header :: rest when header = magic ->
        make ?flush_every ~path (List.filter_map parse_line rest)
    | _ ->
        (* Unrecognised file: treat as empty rather than resuming from
           garbage; the next persist overwrites it. *)
        make ?flush_every ~path []

(* Caller holds [t.lock].  An [Io_error] (disk full, directory gone)
   does NOT abort the sweep: the cells stay buffered in memory and
   every subsequent [record] (and the final [flush]) retries the
   persist — so when space clears the journal catches up, and when it
   never does the completed work is still returned to the caller,
   which sees [persist_pending] instead of losing it. *)
let persist_locked t =
  match
    Fileio.write_atomic ~path:t.path (fun oc ->
        output_string oc (magic ^ "\n");
        List.iter
          (fun key ->
            Printf.fprintf oc "cell %x %s\n" (Stable_hash.string key) key)
          (List.rev t.cells_rev))
  with
  | () -> t.unflushed <- 0
  | exception Fileio.Io_error _ -> ()

let flush t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> if t.unflushed > 0 then persist_locked t)

let persist_pending t =
  Mutex.lock t.lock;
  let pending = t.unflushed > 0 in
  Mutex.unlock t.lock;
  pending

let record t key =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not (Hashtbl.mem t.seen key) then begin
        Hashtbl.add t.seen key ();
        t.cells_rev <- key :: t.cells_rev;
        t.unflushed <- t.unflushed + 1;
        if t.unflushed >= t.flush_every then persist_locked t
      end)
