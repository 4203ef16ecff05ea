module Category = Ksurf_kernel.Category

type syscall_failures = {
  rates : (Category.t * float) list;
  eintr_share : float;
}

type daemon_storm = {
  jbd2 : float;
  kswapd : float;
  load_balancer : float;
  cgroup_flusher : float;
}

type lock_preemption = {
  lock_class : string;
  probability : float;
  stretch_ns : float;
}

type rank_crash = {
  rank : int;
  at_ns : float;
  restart_after_ns : float option;
}

type action =
  | Syscall_failures of syscall_failures
  | Daemon_storm of daemon_storm
  | Lock_preemption of lock_preemption
  | Ipi_storm of { period_ns : float }
  | Cache_flush_storm of {
      period_ns : float;
      window_ns : float;
      pressure : float;
    }
  | Slow_memory of { period_ns : float; window_ns : float; dilation : float }
  | Device_stall of { probability : float; stall_ns : float }
  | Rank_crash of rank_crash
  | Workload_drift of { at_ns : float; shift : float }

type t = { name : string; actions : action list }

(* --- dose scaling ----------------------------------------------------- *)

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

(* Multipliers interpolate towards stock (1.0) instead of multiplying,
   so half a dose of a 4x storm is a 2.5x storm, and dose 0 is stock. *)
let lerp_mult k m = 1.0 +. (k *. (m -. 1.0))

let scale_action k = function
  | Syscall_failures { rates; eintr_share } ->
      Some
        (Syscall_failures
           {
             rates = List.map (fun (c, r) -> (c, clamp01 (r *. k))) rates;
             eintr_share;
           })
  | Daemon_storm d ->
      Some
        (Daemon_storm
           {
             jbd2 = lerp_mult k d.jbd2;
             kswapd = lerp_mult k d.kswapd;
             load_balancer = lerp_mult k d.load_balancer;
             cgroup_flusher = lerp_mult k d.cgroup_flusher;
           })
  | Lock_preemption p ->
      Some
        (Lock_preemption
           {
             p with
             probability = clamp01 (p.probability *. k);
             stretch_ns = p.stretch_ns *. k;
           })
  | Ipi_storm { period_ns } ->
      if k <= 0.0 then None else Some (Ipi_storm { period_ns = period_ns /. k })
  | Cache_flush_storm s ->
      Some (Cache_flush_storm { s with pressure = s.pressure *. k })
  | Slow_memory s -> Some (Slow_memory { s with dilation = lerp_mult k s.dilation })
  | Device_stall { probability; stall_ns } ->
      Some
        (Device_stall
           { probability = clamp01 (probability *. k); stall_ns = stall_ns *. k })
  | Rank_crash c -> if k <= 0.0 then None else Some (Rank_crash c)
  | Workload_drift { at_ns; shift } ->
      (* The dose knob scales how far the syscall mix shifts, not when:
         a drift that never moves the mix (k = 0) is no drift at all. *)
      if k <= 0.0 then None
      else Some (Workload_drift { at_ns; shift = clamp01 (shift *. k) })

let scale k t =
  if k < 0.0 then invalid_arg "Plan.scale: negative intensity";
  {
    name = Printf.sprintf "%s@%g" t.name k;
    (* Zero dose injects literally nothing: no actions, so not even
       no-op storm windows tick the injection counters. *)
    actions =
      (if k = 0.0 then [] else List.filter_map (scale_action k) t.actions);
  }

(* --- serialisation ---------------------------------------------------- *)

let action_to_string = function
  | Syscall_failures { rates; eintr_share } ->
      let rates =
        List.map
          (fun (c, r) -> Printf.sprintf "%s=%g" (Category.to_string c) r)
          rates
      in
      Printf.sprintf "syscall-failures %s eintr-share=%g"
        (String.concat " " rates) eintr_share
  | Daemon_storm { jbd2; kswapd; load_balancer; cgroup_flusher } ->
      Printf.sprintf
        "daemon-storm jbd2=%g kswapd=%g load-balancer=%g cgroup-flusher=%g"
        jbd2 kswapd load_balancer cgroup_flusher
  | Lock_preemption { lock_class; probability; stretch_ns } ->
      Printf.sprintf "lock-preemption class=%s prob=%g stretch=%g" lock_class
        probability stretch_ns
  | Ipi_storm { period_ns } -> Printf.sprintf "ipi-storm period=%g" period_ns
  | Cache_flush_storm { period_ns; window_ns; pressure } ->
      Printf.sprintf "cache-flush period=%g window=%g pressure=%g" period_ns
        window_ns pressure
  | Slow_memory { period_ns; window_ns; dilation } ->
      Printf.sprintf "slow-memory period=%g window=%g dilation=%g" period_ns
        window_ns dilation
  | Device_stall { probability; stall_ns } ->
      Printf.sprintf "device-stall prob=%g stall=%g" probability stall_ns
  | Rank_crash { rank; at_ns; restart_after_ns } -> (
      match restart_after_ns with
      | None -> Printf.sprintf "rank-crash rank=%d at=%g" rank at_ns
      | Some r -> Printf.sprintf "rank-crash rank=%d at=%g restart=%g" rank at_ns r)
  | Workload_drift { at_ns; shift } ->
      Printf.sprintf "workload-drift at=%g shift=%g" at_ns shift

let to_string t =
  String.concat "\n"
    (Printf.sprintf "name %s" t.name
    :: List.map action_to_string t.actions)
  ^ "\n"

(* Parser for the line format: one [keyword key=value ...] action per
   line, an optional [name <n>] line, blank lines and [#] comments
   ignored.  Every error names the offending line. *)

let ( let* ) = Result.bind

let parse_kv word =
  match String.index_opt word '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" word)
  | Some i ->
      Ok (String.sub word 0 i, String.sub word (i + 1) (String.length word - i - 1))

let kvs_of words =
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* kv = parse_kv w in
      Ok (kv :: acc))
    (Ok []) words
  |> Result.map List.rev

let float_of key v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: not a number: %S" key v)

let int_of key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not an integer: %S" key v)

(* [key]'s value, else [default], else [missing <key>=]. *)
let find_float kvs key ~default =
  match (List.assoc_opt key kvs, default) with
  | Some v, _ -> float_of key v
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing %s=" key)

let parse_action keyword kvs =
  match keyword with
  | "syscall-failures" ->
      let* eintr_share = find_float kvs "eintr-share" ~default:(Some 0.3) in
      let* rates =
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            if k = "eintr-share" then Ok acc
            else
              match Category.of_string k with
              | None -> Error (Printf.sprintf "unknown category %S" k)
              | Some c ->
                  let* r = float_of k v in
                  Ok ((c, r) :: acc))
          (Ok []) kvs
      in
      Ok (Syscall_failures { rates = List.rev rates; eintr_share })
  | "daemon-storm" ->
      let* jbd2 = find_float kvs "jbd2" ~default:(Some 1.0) in
      let* kswapd = find_float kvs "kswapd" ~default:(Some 1.0) in
      let* load_balancer = find_float kvs "load-balancer" ~default:(Some 1.0) in
      let* cgroup_flusher =
        find_float kvs "cgroup-flusher" ~default:(Some 1.0)
      in
      Ok (Daemon_storm { jbd2; kswapd; load_balancer; cgroup_flusher })
  | "lock-preemption" ->
      let* lock_class =
        match List.assoc_opt "class" kvs with
        | Some c -> Ok c
        | None -> Error "lock-preemption: missing class="
      in
      let* probability = find_float kvs "prob" ~default:None in
      let* stretch_ns = find_float kvs "stretch" ~default:None in
      Ok (Lock_preemption { lock_class; probability; stretch_ns })
  | "ipi-storm" ->
      let* period_ns = find_float kvs "period" ~default:None in
      Ok (Ipi_storm { period_ns })
  | "cache-flush" ->
      let* period_ns = find_float kvs "period" ~default:None in
      let* window_ns = find_float kvs "window" ~default:None in
      let* pressure = find_float kvs "pressure" ~default:None in
      Ok (Cache_flush_storm { period_ns; window_ns; pressure })
  | "slow-memory" ->
      let* period_ns = find_float kvs "period" ~default:None in
      let* window_ns = find_float kvs "window" ~default:None in
      let* dilation = find_float kvs "dilation" ~default:None in
      Ok (Slow_memory { period_ns; window_ns; dilation })
  | "device-stall" ->
      let* probability = find_float kvs "prob" ~default:None in
      let* stall_ns = find_float kvs "stall" ~default:None in
      Ok (Device_stall { probability; stall_ns })
  | "rank-crash" ->
      let* rank =
        match List.assoc_opt "rank" kvs with
        | Some v -> int_of "rank" v
        | None -> Error "rank-crash: missing rank="
      in
      let* at_ns = find_float kvs "at" ~default:None in
      let* restart_after_ns =
        match List.assoc_opt "restart" kvs with
        | None -> Ok None
        | Some v -> Result.map Option.some (float_of "restart" v)
      in
      Ok (Rank_crash { rank; at_ns; restart_after_ns })
  | "workload-drift" ->
      let* at_ns = find_float kvs "at" ~default:None in
      let* shift = find_float kvs "shift" ~default:None in
      Ok (Workload_drift { at_ns; shift })
  | other -> Error (Printf.sprintf "unknown fault action %S" other)

let of_string s =
  let rec go name actions = function
    | [] -> Ok { name; actions = List.rev actions }
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go name actions rest
        else
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [] -> go name actions rest
          | "name" :: n :: _ -> go n actions rest
          | keyword :: words -> (
              match
                let* kvs = kvs_of words in
                parse_action keyword kvs
              with
              | Error e -> Error (Printf.sprintf "%S: %s" line e)
              | Ok a -> go name (a :: actions) rest))
  in
  go "unnamed" [] (String.split_on_char '\n' s)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* --- presets ----------------------------------------------------------

   Magnitudes are chosen so the "mixed" preset at intensity 1.0 visibly
   thickens native tails at varbench timescales (µs-scale syscalls,
   ms-scale daemon passes) without drowning the stock signal. *)

let syscalls_preset =
  {
    name = "syscalls";
    actions =
      [
        Syscall_failures
          {
            rates =
              [
                (Category.File_io, 0.03);
                (Category.Fs_mgmt, 0.02);
                (Category.Ipc, 0.02);
                (Category.Process, 0.01);
              ];
            eintr_share = 0.3;
          };
      ];
  }

let storms_preset =
  {
    name = "storms";
    actions =
      [
        Daemon_storm
          { jbd2 = 6.0; kswapd = 4.0; load_balancer = 3.0; cgroup_flusher = 2.0 };
        Ipi_storm { period_ns = 150_000.0 };
        Cache_flush_storm
          { period_ns = 2_000_000.0; window_ns = 400_000.0; pressure = 0.25 };
      ];
  }

let preempt_preset =
  {
    name = "preempt";
    actions =
      [
        Lock_preemption
          { lock_class = "journal"; probability = 0.08; stretch_ns = 30_000.0 };
        Lock_preemption
          { lock_class = "zone"; probability = 0.05; stretch_ns = 20_000.0 };
        Device_stall { probability = 0.04; stall_ns = 60_000.0 };
      ];
  }

let mixed_preset =
  {
    name = "mixed";
    actions =
      syscalls_preset.actions @ storms_preset.actions @ preempt_preset.actions
      @ [
          Slow_memory
            {
              period_ns = 4_000_000.0;
              window_ns = 800_000.0;
              dilation = 1.6;
            };
        ];
  }

let crashy_preset =
  {
    name = "crashy";
    actions =
      mixed_preset.actions
      @ [
          Rank_crash
            { rank = 1; at_ns = 3_000_000.0; restart_after_ns = Some 1_000_000.0 };
        ];
  }

let drift_preset =
  (* At intensity 1.0 a quarter of post-drift calls come from subsystems
     the audited profile never saw — enough to blow past any sane
     denial-rate threshold without making the pre-drift phase unusable
     for learning.  [at_ns] sits well after the adaptive controller's
     audit window at driftbench epoch cadences. *)
  {
    name = "drift";
    actions = [ Workload_drift { at_ns = 2_000_000.0; shift = 0.25 } ];
  }

let presets =
  [
    ("syscalls", syscalls_preset);
    ("storms", storms_preset);
    ("preempt", preempt_preset);
    ("mixed", { mixed_preset with name = "mixed" });
    ("crashy", { crashy_preset with name = "crashy" });
    ("drift", drift_preset);
  ]

let preset name = List.assoc_opt name presets
