(** Phi-accrual failure detection over virtual-time heartbeats.

    Each monitored rank accrues a suspicion level
    [phi = silence / (mean_interval * ln 10)] — the exponential-arrival
    form of Hayashibara's accrual detector — against a windowed estimate
    of its heartbeat inter-arrival time.  Two thresholds split phi into
    three states: [Alive] below phi 1, [Suspect] between, [Dead] from
    {!dead_phi} up.  Phi is continuous and strictly monotone
    in silence, so detection latency is a deterministic function of the
    heartbeat history — property-tested in [test_recov.ml].

    [Dead] is sticky: no heartbeat returns a rank to [Alive]. *)

type verdict = Alive | Suspect | Dead

val verdict_name : verdict -> string
(** ["alive"], ["suspect"], ["dead"] — the strings carried by
    [Engine.Rank_transition] probe events. *)

val dead_phi : float
(** 4: the phi at which a Suspect rank is ruled Dead.  A rank turns
    Suspect at phi 1.  The mean inter-arrival is estimated over the
    last 8 heartbeats, and assumed 100 us before the first. *)

type t

val create : now:float -> ranks:int list -> unit -> t
(** Fresh detector; every rank starts [Alive] with its last-heartbeat
    time set to [now]. *)

val heartbeat : t -> rank:int -> now:float -> unit
(** Record a heartbeat: fold the inter-arrival into the window. *)

val evaluate : t -> now:float -> (int * verdict * verdict) list
(** Re-evaluate every monitored rank; apply and return the transitions
    as [(rank, from, to)], in rank order (deterministic). *)

val state : t -> rank:int -> verdict
val retire : t -> rank:int -> unit
(** Stop monitoring a rank that finished its work legitimately — a
    departed rank must not accrue suspicion. *)
