(** Binary de Bruijn sequences B(2,k).

    A B(2,k) sequence of length [2^k] contains every k-bit window exactly
    once per period (cyclically). That makes it the sharpest possible
    history-capacity probe for a branch predictor: a predictor that can
    observe the last [h] outcomes predicts the next bit perfectly when
    [k <= h] (every k-window determines its successor) and can do no better
    than chance once [k = h + 1] (every h-window is followed by 0 and by 1
    equally often). The probe suite, the conformance fuzzer and the
    workload kernels all draw from this one generator. *)

val sequence : order:int -> bool array
(** The lexicographically-least binary de Bruijn sequence of the given
    order, length [2^order]. Raises [Invalid_argument] outside [1, 20]
    (at most a 1Mi-bit sequence). *)

val bit : bool array -> int -> bool
(** [bit seq i] reads the sequence cyclically (any [i], including
    negative). *)
