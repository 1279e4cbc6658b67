(** Reimplementations of the design points of the throughput predictors
    the paper compares against (§6.2, Table 2). Each reproduces the
    characteristic modeling choices (and therefore the characteristic
    error modes) of its namesake; see DESIGN.md for the mapping.

    All predictors take an analyzed {!Facile_core.Block.t} and return
    predicted cycles per iteration. *)

open Facile_core

(** [defused_cfg cfg] is [cfg] with the features llvm-mca and OSACA do
    not model turned off: macro fusion and move elimination.  It is not
    one of [Config.all]'s records, so blocks built against it take
    [Db.describe] instead of the flat tables. *)
val defused_cfg : Facile_uarch.Config.t -> Facile_uarch.Config.t

(** llvm-mca-like: back-end-only scheduling model. No front end, no
    macro or micro fusion, no move elimination (the omissions the paper
    quotes for llvm-mca), and deterministically perturbed latencies
    standing in for LLVM's known scheduling-model miscalibrations. *)
val llvm_mca_like : Block.t -> float

(** OSACA-like: analytical port model with {e uniform} (fractional)
    distribution of each µop over its admissible ports — rather than
    Facile's optimal-assignment bound — combined with a loop-carried
    critical-path estimate. No front end. *)
val osaca_like : Block.t -> float

(** IACA-like: coarse front end (issue width only), optimal port bound,
    no predecode/LCP modeling and no dependency analysis. *)
val iaca_like : Block.t -> float

(** The learned (Ithemal/GRANITE-style) baseline: a ridge-regression
    model over block-level features. *)
type learned

(** [featurize b] — the feature vector (constant-1 feature included). *)
val featurize : Block.t -> float array

(** [train samples] fits the model on [(block, measured)] pairs. *)
val train : (Block.t * float) list -> learned

(** [predict_learned model b] — clamped to be nonnegative. *)
val predict_learned : learned -> Block.t -> float
