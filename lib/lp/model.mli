(** Mixed-integer linear program models.

    This plays the role CPLEX's model API plays in the paper: the PaQL
    translator builds one decision variable per candidate tuple (binary, or
    integer in [0, k] under REPEAT k) and one linear constraint per global
    constraint, then hands the model to {!Simplex}/{!Milp}. *)

type sense = Le | Ge | Eq

type linear = (float * int) list
(** Sum of [coefficient * variable] terms; variables are indices returned
    by {!add_var}. Duplicate variables are allowed and are summed. *)

type objective = Maximize of linear | Minimize of linear

type constr = { name : string; terms : linear; sense : sense; rhs : float }

type t

val create : unit -> t

val add_var :
  t -> ?integer:bool -> ?lower:float -> ?upper:float -> string -> int
(** New variable index. Defaults: continuous, bounds [0, +inf). *)

val num_vars : t -> int
val var_name : t -> int -> string
val bounds : t -> int -> float * float
val lower : t -> int -> float
val upper : t -> int -> float
(** [lower]/[upper] are the two halves of {!bounds}, without the pair. *)

val set_bounds : t -> int -> float -> float -> unit
(** Used by branch & bound to tighten a variable on one branch. *)

val is_integer : t -> int -> bool
val add_constr : t -> ?name:string -> linear -> sense -> float -> unit
val constraints : t -> constr list
val set_objective : t -> objective -> unit
val objective : t -> objective

val objective_terms : t -> float array
(** Dense maximization coefficients (negated for [Minimize]). *)

val objective_value : t -> float array -> float
(** Evaluate the {e original} objective (not the internal maximization
    form) at a point. *)

val check_feasible : ?eps:float -> t -> float array -> bool
(** Bounds + constraints check, with [eps] absolute slack (default 1e-6).
    Integrality is {e not} checked here; see {!check_integral}. *)

val check_integral : ?eps:float -> t -> float array -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable LP-format-style dump. *)
