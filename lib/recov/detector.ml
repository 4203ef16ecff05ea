(* Phi-accrual failure detection (Hayashibara et al., SRDS'04), the
   shape Cassandra and Akka ship: instead of a boolean timeout, each
   rank accrues a suspicion level phi = -log10 P(the rank is alive given
   its silence), computed against a windowed estimate of its heartbeat
   inter-arrival time.  Under the exponential-arrival assumption
   P(silence > t) = exp(-t / mean), so

       phi(t) = t_silence / (mean_interval * ln 10)

   which is continuous and strictly monotone in silence — thresholds
   pick the trade-off between detection latency and false suspicion.
   Two thresholds give three states: Alive below [suspect_phi], Suspect
   between, Dead above [dead_phi].  Dead is sticky: the supervisor
   builds a fresh detector for each superstep rather than reviving a
   rank. *)

type verdict = Alive | Suspect | Dead

let verdict_name = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

let window = 8 (* inter-arrival samples kept per rank *)
let bootstrap_interval_ns = 1.0e5 (* assumed mean before samples exist *)
let min_interval_ns = 1.0 (* floor on the mean estimate *)
let suspect_phi = 1.0
let dead_phi = 4.0

type rank_state = {
  rank : int;
  mutable intervals : float list;  (* most recent first, length <= window *)
  mutable interval_count : int;
  mutable last : float;  (* last heartbeat time *)
  mutable state : verdict;
  mutable monitored : bool;
}

type t = { ranks : rank_state list (* sorted by rank: evaluation order is fixed *) }

let create ~now ~ranks () =
  let ranks = List.sort_uniq compare ranks in
  {
    ranks =
      List.map
        (fun rank ->
          {
            rank;
            intervals = [];
            interval_count = 0;
            last = now;
            state = Alive;
            monitored = true;
          })
        ranks;
  }

let find t rank =
  match List.find_opt (fun r -> r.rank = rank) t.ranks with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Detector: unknown rank %d" rank)

let heartbeat t ~rank ~now =
  let r = find t rank in
  let interval = now -. r.last in
  if interval > 0.0 then begin
    let kept =
      if r.interval_count >= window then
        List.filteri (fun i _ -> i < window - 1) r.intervals
      else r.intervals
    in
    r.intervals <- interval :: kept;
    r.interval_count <- min (r.interval_count + 1) window
  end;
  r.last <- now

let mean_interval r =
  match r.intervals with
  | [] -> bootstrap_interval_ns
  | is ->
      let sum = List.fold_left ( +. ) 0.0 is in
      Float.max (sum /. float_of_int (List.length is)) min_interval_ns

let ln10 = Float.log 10.0

let phi_of r ~now =
  let silence = Float.max 0.0 (now -. r.last) in
  silence /. (mean_interval r *. ln10)

let state t ~rank = (find t rank).state
let retire t ~rank = (find t rank).monitored <- false

(* Re-evaluate every monitored rank at [now]; apply and return the
   state changes in rank order.  Dead is terminal here — a heartbeat
   from a Dead rank is history's problem, not the detector's. *)
let evaluate t ~now =
  List.filter_map
    (fun r ->
      if not r.monitored then None
      else
        let p = phi_of r ~now in
        let next =
          match r.state with
          | Alive when p >= suspect_phi -> Suspect
          | Suspect when p >= dead_phi -> Dead
          | Suspect when p < suspect_phi -> Alive
          | s -> s
        in
        if next = r.state then None
        else begin
          let prev = r.state in
          r.state <- next;
          Some (r.rank, prev, next)
        end)
    t.ranks
