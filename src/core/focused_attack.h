// sbx/core/focused_attack.h
//
// The paper's Targeted Causative Availability attack (§3.3): the attacker
// knows (part of) a specific future email and sends spam containing the
// words it expects that email to contain, so SpamBayes learns to score the
// target's tokens as spammy and files the target away from the inbox. The
// attack itself is the registry's "focused" entry (builtin_attacks.cpp);
// this header holds what the attacker can know about a target.
//
// Knowledge model (§4.3): the attacker guesses each token of the target
// correctly with probability p. One guess set is drawn per attack instance
// — the attacker's knowledge is fixed, and every attack email it sends
// carries that same payload. (Independent per-email guesses would converge
// to full knowledge as the email count grows, erasing the p-dependence that
// Figure 2 demonstrates; see DESIGN.md §5.)
//
// Headers: each attack email clones the full header block of a randomly
// chosen real spam message (§4.1), modelling the restriction that attackers
// do not control the headers the victim's infrastructure records.
#pragma once

#include "email/message.h"
#include "spambayes/tokenizer.h"

namespace sbx::core {

/// Extracts the plain body words of a message that a focused attacker can
/// guess and embed in its own attack bodies: word tokens only (no header
/// tokens, no skip:/url: pseudo-tokens).
spambayes::TokenSet attackable_body_words(const email::Message& msg,
                                          const spambayes::Tokenizer& tok);

}  // namespace sbx::core
