(* Crash-consistent superstep checkpoints.

   A BSP run's cross-superstep state — membership, pending rejoins,
   PRNG stream position, accumulated runtime and counters — is
   serialised as a small text file: a versioned header, a whole-payload
   FNV-1a checksum, then one [key value] line per field.  Floats are
   written as the hex of their IEEE-754 bits ([Int64.bits_of_float]) so
   a resumed run is bit-identical to an uninterrupted one, not merely
   close after a decimal round-trip.  Writes go through
   [Fileio.write_atomic] (temp + rename), so a crash mid-checkpoint
   leaves the previous valid checkpoint in place. *)

module Fileio = Ksurf_util.Fileio
module Stable_hash = Ksurf_util.Stable_hash

let magic = "ksurf-checkpoint"
let version = 1

type rejoin = {
  rj_rank : int;
  rj_superstep : int;  (* superstep at which the rank re-enters *)
  rj_incident : int;
  rj_died_at : int;  (* superstep of the death, for catch-up cost *)
}

type state = {
  superstep : int;  (* next superstep to execute *)
  runtime_ns : float;  (* accumulated, barriers included *)
  membership : int list;  (* sorted live ranks *)
  rejoins : rejoin list;
  incidents : int;  (* crash/recovery episodes allocated so far *)
  prng_state : int64;
  prng_seed : int;
  crashes : int;
  restarts : int;
  backups : int;
  deaths : int;
  transitions : int;
  checkpoints : int;
  degraded : bool;
}

let float_bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let float_of_bits s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Some (Int64.float_of_bits bits)
  | None -> None

let ints_line ns = String.concat "," (List.map string_of_int ns)

let ints_of_line s =
  if String.trim s = "" then Some []
  else
    String.split_on_char ',' s
    |> List.map int_of_string_opt
    |> List.fold_left
         (fun acc x ->
           match (acc, x) with
           | Some acc, Some x -> Some (x :: acc)
           | _ -> None)
         (Some [])
    |> Option.map List.rev

let rejoin_line r =
  Printf.sprintf "%d:%d:%d:%d" r.rj_rank r.rj_superstep r.rj_incident
    r.rj_died_at

let rejoin_of_line s =
  match String.split_on_char ':' s |> List.map int_of_string_opt with
  | [ Some rank; Some step; Some incident; Some died ] ->
      Some
        {
          rj_rank = rank;
          rj_superstep = step;
          rj_incident = incident;
          rj_died_at = died;
        }
  | _ -> None

let payload_lines st =
  [
    Printf.sprintf "superstep %d" st.superstep;
    Printf.sprintf "runtime_bits %s" (float_bits st.runtime_ns);
    Printf.sprintf "membership %s" (ints_line st.membership);
    Printf.sprintf "rejoins %s"
      (String.concat "," (List.map rejoin_line st.rejoins));
    Printf.sprintf "incidents %d" st.incidents;
    Printf.sprintf "prng_state %Lx" st.prng_state;
    Printf.sprintf "prng_seed %d" st.prng_seed;
    Printf.sprintf "crashes %d" st.crashes;
    Printf.sprintf "restarts %d" st.restarts;
    Printf.sprintf "backups %d" st.backups;
    Printf.sprintf "deaths %d" st.deaths;
    Printf.sprintf "transitions %d" st.transitions;
    Printf.sprintf "checkpoints %d" st.checkpoints;
    Printf.sprintf "degraded %b" st.degraded;
  ]

let checksum lines = Stable_hash.string (String.concat "\n" lines)

let write ~path st =
  let payload = payload_lines st in
  Fileio.ensure_dir (Filename.dirname path);
  Fileio.write_atomic ~path (fun oc ->
      Printf.fprintf oc "%s v%d\n" magic version;
      Printf.fprintf oc "checksum %x\n" (checksum payload);
      List.iter (fun l -> output_string oc (l ^ "\n")) payload)

let field fields key = List.assoc_opt key fields

let int_field fields key = Option.bind (field fields key) int_of_string_opt

let read ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such checkpoint")
  else
    match Fileio.read_lines path with
    | exception Fileio.Io_error msg -> Error msg
    | [] -> Error (path ^ ": empty checkpoint")
    | header :: rest -> (
        if header <> Printf.sprintf "%s v%d" magic version then
          Error
            (Printf.sprintf "%s: bad header %S (want %s v%d)" path header
               magic version)
        else
          match rest with
          | [] -> Error (path ^ ": missing checksum")
          | sum_line :: payload -> (
              let declared =
                match String.split_on_char ' ' sum_line with
                | [ "checksum"; hex ] -> int_of_string_opt ("0x" ^ hex)
                | _ -> None
              in
              match declared with
              | None -> Error (path ^ ": malformed checksum line")
              | Some declared when declared <> checksum payload ->
                  Error (path ^ ": checksum mismatch (truncated or corrupt)")
              | Some _ -> (
                  let fields =
                    List.filter_map
                      (fun line ->
                        match String.index_opt line ' ' with
                        | Some i ->
                            Some
                              ( String.sub line 0 i,
                                String.sub line (i + 1)
                                  (String.length line - i - 1) )
                        | None -> Some (line, ""))
                      payload
                  in
                  let ( let* ) o f =
                    match o with
                    | Some v -> f v
                    | None -> Error (path ^ ": missing or malformed field")
                  in
                  let* superstep = int_field fields "superstep" in
                  let* runtime_ns =
                    Option.bind (field fields "runtime_bits") float_of_bits
                  in
                  let* membership =
                    Option.bind (field fields "membership") ints_of_line
                  in
                  let* rejoins =
                    match field fields "rejoins" with
                    | None -> None
                    | Some "" -> Some []
                    | Some s ->
                        String.split_on_char ',' s
                        |> List.map rejoin_of_line
                        |> List.fold_left
                             (fun acc r ->
                               match (acc, r) with
                               | Some acc, Some r -> Some (r :: acc)
                               | _ -> None)
                             (Some [])
                        |> Option.map List.rev
                  in
                  let* incidents = int_field fields "incidents" in
                  let* prng_state =
                    Option.bind (field fields "prng_state") (fun s ->
                        Int64.of_string_opt ("0x" ^ s))
                  in
                  let* prng_seed = int_field fields "prng_seed" in
                  let* crashes = int_field fields "crashes" in
                  let* restarts = int_field fields "restarts" in
                  let* backups = int_field fields "backups" in
                  let* deaths = int_field fields "deaths" in
                  let* transitions = int_field fields "transitions" in
                  let* checkpoints = int_field fields "checkpoints" in
                  let* degraded =
                    Option.bind (field fields "degraded") bool_of_string_opt
                  in
                  Ok
                    {
                      superstep;
                      runtime_ns;
                      membership;
                      rejoins;
                      incidents;
                      prng_state;
                      prng_seed;
                      crashes;
                      restarts;
                      backups;
                      deaths;
                      transitions;
                      checkpoints;
                      degraded;
                    })))
