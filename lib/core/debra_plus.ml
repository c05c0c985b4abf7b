(* DEBRA+ — epoch-based reclamation with neutralization (Brown, PODC'15;
   the paper's §8 "epoch-based techniques" cites it as [13]), included as a
   rival robust scheme: where QSense closes the robustness gap by switching
   to a hazard-pointer fallback, DEBRA+ closes it by force-restarting the
   laggard. It is the epoch engine ({!Ebr}) pinning per operation, plus
   neutralization.

   When the global epoch cannot advance because some process has been
   pinned to an old epoch for too long (a crash or a long delay inside an
   operation), an advancing process neutralizes the laggard: it posts a
   restart signal ({!Qs_intf.Runtime_intf.RUNTIME.neutralize}; the
   simulator delivers it by discontinuing the victim's fiber with
   {!Qs_intf.Runtime_intf.Neutralized} at its next interruptible step,
   modelling DEBRA+'s [pthread_kill]+[sigsetjmp]; the real runtime has no
   asynchronous delivery and relies on a poisoned flag), revokes the
   victim's epoch pin and retries the advance. Under preemptive delivery
   the neutralizer force-unpins the slot itself; under cooperative
   delivery the victim unpins itself at its next protection check
   ([assign_hp] or [retire]).

   Restart safety: the victim's operation is aborted before its next
   shared-memory access to a node its revoked pin protected. Under
   preemptive delivery the discontinuation guarantees this; under
   cooperative delivery the pin is only revoked {e at} the victim's own
   check, leaving no check-to-dereference window. The victim's harness
   catches [Neutralized] and restarts the operation from scratch;
   [manage_state] at the top of the retry clears the poisoned flag and
   re-pins the current epoch. The price of the cooperative model is
   robustness against in-operation crashes: a victim that never runs
   another check never unpins — the precise gap DEBRA+ closes with
   asynchronous signals, unavailable on OCaml domains.

   [retire] performs no runtime read: the pinned epoch is cached in the
   handle, and the push precedes the [Hook_retire] schedule point, so a
   restart raised by [retire] always finds the node banked in limbo. *)

module Make = Ebr.Make_gen (struct
  let scheme_name = "debra-plus"
  let per_operation = true
  let neutralize = true
end)
