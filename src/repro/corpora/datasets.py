"""The five evaluation corpora of Table 1, as synthetic specs.

| dataset      | #sentences | %positives | task      |
|--------------|-----------:|-----------:|-----------|
| cause-effect | 10.7K      | 12.2       | Relations |
| musicians    | 15.8K      | 10         | Entities  |
| directions   | 15.3K      | 3.8        | Intents   |
| profession   | 1M (50K default here; pass n=1_000_000 for the scale job) | 1.1 | Entities |
| tweets       | 2130       | 11.4 (Food)| Intents   |

Each spec plants pattern families mirroring the paper's qualitative
findings: the directions corpus has a 'shuttle' family lexically far
from the 'best way to get to' seed (Fig 8's biased-seed probe), the
cause-effect corpus has a noisy 'by' generalization between 'caused by'
and 'triggered by' (Fig 11), and professions positives hang off an
"X is a <profession>" / "job" construction reachable by TreeMatch.
"""
from __future__ import annotations

from repro.corpora.generator import CorpusSpec, Family

_PLACES = (
    "airport", "hotel", "station", "downtown", "museum", "mall", "beach",
    "sfo", "oakland", "berkeley", "pier", "stadium", "harbor", "plaza",
    "aquarium", "park", "theater", "gallery", "campus", "wharf",
)
_FOODS = (
    "pizza", "sushi", "tacos", "ramen", "burgers", "pasta", "salad",
    "noodles", "dumplings", "pancakes", "sandwiches", "curry",
)
def _synth_names(n: int, seed: int = 99) -> tuple[str, ...]:
    """A large deterministic surname pool so no single name-unigram rule
    covers a meaningful share of positives (real-corpus entity sparsity)."""
    import numpy as _np

    rng = _np.random.default_rng(seed)
    on = ("br", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w")
    nu = ("a", "e", "i", "o", "u", "ar", "el", "in", "or", "ul")
    coda = ("son", "ton", "man", "berg", "ler", "dez", "well", "ford", "by", "ski")
    out: set[str] = set()
    while len(out) < n:
        name = rng.choice(on) + rng.choice(nu) + rng.choice(coda)
        out.add(str(name))
    return tuple(sorted(out))


_PEOPLE = (
    "beethoven", "mozart", "coltrane", "armstrong", "hendrix", "dylan",
    "parton", "santana", "brubeck", "holiday", "ellington", "clapton",
    "marley", "prince", "adele", "bowie",
) + _synth_names(280)
_NONMUSICIANS = (
    "einstein", "curie", "darwin", "newton", "turing", "lovelace",
    "hopper", "tesla", "bohr", "feynman", "goodall", "franklin",
)
_INSTRUMENTS = ("piano", "guitar", "trumpet", "violin", "saxophone", "drums", "cello", "flute")
_WORKS = ("symphony", "concerto", "album", "sonata", "ballad", "anthem", "opera", "suite")
_CAUSES = (
    "smoking", "drought", "inflation", "overfishing", "pollution",
    "deforestation", "stress", "friction", "radiation", "erosion",
    "malnutrition", "overheating", "corrosion", "turbulence",
    "vibration", "humidity", "congestion", "speculation", "poaching",
    "negligence", "leakage", "debt", "frost", "overcrowding",
    "understaffing", "misuse", "wear", "contamination",
)
_EFFECTS = (
    "cancer", "famine", "unrest", "collapse", "flooding", "failure",
    "fatigue", "damage", "outage", "shortage", "extinction", "anxiety",
    "wildfires", "blackouts", "losses", "delays", "injuries", "erosion",
    "bankruptcy", "landslides", "epidemics", "accidents", "cracks",
    "decline", "layoffs", "protests", "recalls", "closures",
)
_PROFESSIONS = (
    "teacher", "scientist", "engineer", "nurse", "lawyer", "plumber",
    "architect", "journalist", "chef", "pilot", "librarian", "surgeon",
    "electrician", "accountant", "pharmacist", "carpenter", "dentist",
    "economist", "geologist", "translator", "designer", "auditor",
    "therapist", "veterinarian", "mechanic", "welder", "broker",
    "paralegal", "dietician", "optician", "surveyor", "curator",
    "machinist", "locksmith", "roofer", "glazier", "tailor",
    "jeweler", "barber", "florist", "butcher", "brewer",
    "miller", "mason", "clerk", "bailiff", "notary", "coroner",
)
_ORGS = (
    "the university", "the hospital", "the firm", "the lab", "the school",
    "the agency", "the studio", "the clinic", "the council", "the press",
)
_TOPICS = (
    "weather", "game", "meeting", "garden", "market", "movie", "book",
    "budget", "traffic", "election", "recipe", "holiday", "project",
    "lecture", "festival", "contract",
)
_ADJS = ("great", "boring", "long", "new", "local", "famous", "quiet", "busy", "crowded", "cheap")
_CITIES = ("paris", "vienna", "chicago", "memphis", "seattle", "nashville", "austin", "denver", "boston")

_SHARED_SLOTS = {
    "place": _PLACES, "food": _FOODS, "person": _PEOPLE,
    "nonmusician": _NONMUSICIANS, "instrument": _INSTRUMENTS,
    "work": _WORKS, "cause": _CAUSES, "effect": _EFFECTS,
    "profession": _PROFESSIONS, "org": _ORGS, "topic": _TOPICS,
    "adj": _ADJS, "city": _CITIES,
}


def directions(n: int = 15_300, seed: int = 0) -> CorpusSpec:
    """Hotel-concierge intent corpus (Example 1). Seed: 'best way to get to'."""
    return CorpusSpec(
        name="directions",
        n=n,
        pos_frac=0.038,
        families=(
            Family("best_way", (
                "what is the best way to get to the {place} ?",
                "what is the best way to get to {place} from the hotel ?",
                "best way to get to the {place} from here ?",
            ), 0.30),
            Family("shuttle", (
                "is there a shuttle to the {place} ?",
                "does the shuttle to the {place} run on weekends ?",
                "when does the shuttle to {place} leave ?",
            ), 0.22),
            Family("bart", (
                "is there a bart from {place} to the hotel ?",
                "can i take the bart from the hotel to {place} ?",
            ), 0.14),
            Family("taxi", (
                "is uber the fastest way to get to the {place} ?",
                "should i take a taxi to the {place} ?",
                "how much is a taxi to the {place} from the hotel ?",
            ), 0.18),
            Family("how_reach", (
                "how do i reach the {place} from the hotel ?",
                "how do i get to the {place} ?",
            ), 0.16),
            # Long-tail positives: phrasing mirrored by negatives below,
            # so no depth-bounded rule covers them at 0.8 precision —
            # keeps coverage from saturating (real-corpus behaviour).
            Family("tail", (
                "how about the {place} later today ?",
                "can we make it to the {place} before it closes ?",
                "any chance of a ride over to the {place} ?",
            ), 0.18),
        ),
        negative_templates=(
            "what is the best way to order {food} from you ?",
            "what is the best way to check in there ?",
            "would uber eats be the fastest way to order {food} ?",
            "is the {place} {adj} this time of year ?",
            "can you book a table for dinner at the {place} ?",
            "what time does the {place} close today ?",
            "is breakfast included with the room ?",
            "can i get a late check out tomorrow ?",
            "do you have a {adj} room with a view ?",
            "is the pool open in the evening ?",
            "could you send more towels to the room ?",
            "the {topic} was really {adj} today",
            "where can i order {food} near the hotel ?",
            "is the wifi free in the lobby ?",
            "can you recommend a {adj} restaurant for {food} ?",
            "is it ok to bring the dog into the lobby ?",
            "is there a fee to use the gym ?",
            "do i need a code to open the garage ?",
            "who do i call to fix the shower ?",
            "can you add breakfast to the bill ?",
            "please charge the dinner to the room",
            "how do i connect to the wifi in the room ?",
            "the elevator to the spa is out of service",
            "is the door to the balcony locked ?",
            "where can i get coffee near the lobby ?",
            "can i get extra pillows for the room ?",
            "how do i set the alarm on the clock ?",
            "how about the {place} for dinner instead ?",
            "how about some {food} later today ?",
            "can we make it to the show at the theater tonight ?",
            "any chance of a discount over the weekend ?",
            "is there a ride share desk in the lobby ?",
        ),
        slots=_SHARED_SLOTS,
        seed=seed,
        seed_rule=("best", "way", "to", "get", "to"),
    )


def cause_effect(n: int = 10_700, seed: int = 1) -> CorpusSpec:
    """Relation-extraction corpus (SemEval cause-effect substitute)."""
    return CorpusSpec(
        name="cause-effect",
        n=n,
        pos_frac=0.122,
        families=(
            Family("caused", (
                "the {effect} was caused by {cause} in the region",
                "{cause} caused severe {effect} last year",
                "researchers say {cause} caused the {effect}",
            ), 0.34),
            Family("led_to", (
                "{cause} led to widespread {effect}",
                "years of {cause} led to the {effect}",
            ), 0.22),
            Family("triggered", (
                "the {effect} was triggered by {cause}",
                "{cause} triggered a wave of {effect}",
            ), 0.20),
            Family("resulted", (
                "{cause} resulted in {effect} across the country",
                "the {effect} resulted from prolonged {cause}",
            ), 0.14),
            Family("due_to", (
                "the {effect} was due to {cause}",
            ), 0.10),
            Family("tail", (
                "{cause} played a role in the {effect}",
                "the {effect} followed years of {cause}",
                "after months of {cause} the {effect} began",
            ), 0.16),
        ),
        negative_templates=(
            "the book was written by the {profession}",
            "the {work} was composed by {person}",
            "the bridge was built by the {profession} near the {place}",
            "the {topic} is located in the {place}",
            "the report was reviewed by the {profession}",
            "the {topic} was {adj} according to the {profession}",
            "the {place} is part of the {adj} district",
            "a {adj} {topic} about the {place} opened this week",
            "the {profession} spoke about the {topic} at {org}",
            "the {topic} was made of recycled material",
            "people enjoyed the {adj} {topic} in {city}",
            "the {topic} near the {place} was {adj}",
            "{person} played a role in the {work}",
            "the {topic} followed the {topic} on the schedule",
            "after months of planning the {topic} began",
            "years of work went into the {topic}",
            "the documentary about the {effect} was {adj}",
            "a report on {cause} was published by {org}",
            "officials discussed {cause} at the {topic}",
            "the exhibit on {effect} opened at the {place}",
        ),
        slots=_SHARED_SLOTS,
        seed=seed,
        seed_rule=("caused", "by"),
    )


def musicians(n: int = 15_800, seed: int = 2) -> CorpusSpec:
    """Entity-extraction corpus: sentences mentioning musicians."""
    return CorpusSpec(
        name="musicians",
        n=n,
        pos_frac=0.10,
        families=(
            Family("played", (
                "{person} played the {instrument} on the {work}",
                "{person} played {instrument} with the band in {city}",
            ), 0.30),
            Family("composer", (
                "composer {person} wrote a famous {work}",
                "the composer {person} finished the {work} in {city}",
            ), 0.22),
            Family("sang", (
                "{person} sang the {work} at the festival",
                "{person} sang with the choir in {city}",
            ), 0.16),
            Family("toured", (
                "{person} toured {city} with the {work} last spring",
            ), 0.12),
            Family("recorded", (
                "{person} recorded the {work} at the studio",
                "{person} recorded an {work} of {adj} songs",
            ), 0.20),
            Family("tail", (
                "{person} was known for a {adj} {work}",
                "{person} performed in {city} last summer",
                "critics praised {person} after the {work}",
            ), 0.16),
        ),
        negative_templates=(
            "{nonmusician} studied the {topic} at {org}",
            "{nonmusician} taught at {org} for many years",
            "{nonmusician} wrote a paper about the {topic}",
            "the {place} in {city} is {adj}",
            "the {topic} in {city} attracted many visitors",
            "{nonmusician} worked at {org} on the {topic}",
            "the {adj} {topic} was discussed at {org}",
            "a museum about the {topic} opened in {city}",
            "the {profession} explained the {topic} to students",
            "the city council debated the {topic} yesterday",
            "the {topic} was {adj} according to the press",
            "{nonmusician} was known for a {adj} {topic}",
            "the circus performed in {city} last summer",
            "critics praised the {topic} after the {topic}",
        ),
        slots=_SHARED_SLOTS,
        seed=seed,
        seed_rule=("composer",),
    )


def professions(n: int = 50_000, seed: int = 3) -> CorpusSpec:
    """ClueWeb-substitute entity corpus; paper scale is n=1_000_000."""
    return CorpusSpec(
        name="profession",
        n=n,
        pos_frac=0.011,
        families=(
            Family("is_a", (
                "{person} is a {profession} at {org}",
                "she is a {profession} at {org} in {city}",
                "he is a {profession} and works at {org}",
            ), 0.38),
            Family("job_is", (
                "his job is {profession} at {org}",
                "her job as a {profession} keeps her busy",
            ), 0.22),
            Family("works_as", (
                "{person} works as a {profession} in {city}",
                "she works as a {profession} near the {place}",
            ), 0.26),
            Family("hired", (
                "{org} hired a new {profession} this month",
            ), 0.14),
            Family("tail", (
                "{person} spent years at {org} as a {profession}",
                "the {org} team includes a {profession} and two interns",
            ), 0.14),
        ),
        negative_templates=(
            "the {topic} in {city} was {adj} this year",
            "click here to read more about the {topic}",
            "the {place} is open from nine to five",
            "a {adj} {topic} is coming to the {place}",
            "the {topic} was updated on the website",
            "members discussed the {topic} at the {place}",
            "the weather in {city} was {adj} all week",
            "the {adj} {topic} received many comments",
            "photos of the {place} in {city} are online",
            "the forum thread about the {topic} is closed",
            "sign up for the newsletter about the {topic}",
            "the {topic} page was moved to a new address",
            "reviews of the {place} were mostly {adj}",
            "the {topic} schedule is posted at the {place}",
            "{person} spent years at {org} on the {topic}",
            "the {org} team includes students from {city}",
        ),
        slots=_SHARED_SLOTS,
        seed=seed,
        seed_rule=("works", "as", "a"),
    )


def tweets(n: int = 2_130, seed: int = 4) -> CorpusSpec:
    """Tweet intent corpus; positives are the Food intent (11.4 %)."""
    return CorpusSpec(
        name="tweets",
        n=n,
        pos_frac=0.114,
        families=(
            Family("craving", (
                "craving {food} right now",
                "seriously craving some {food} today",
            ), 0.30),
            Family("grab_food", (
                "anyone want to grab {food} tonight ?",
                "lets grab some {food} after the {topic}",
            ), 0.26),
            Family("order", (
                "where can i order {food} around here ?",
                "about to order {food} for the whole office",
            ), 0.24),
            Family("best_food", (
                "best {food} in town hands down",
                "found the best {food} near the {place}",
            ), 0.20),
            Family("tail", (
                "that {food} place near the {place} though",
                "could really go for some {food}",
            ), 0.16),
        ),
        negative_templates=(
            "need to book a flight to {city} soon",
            "dreaming about a trip to {city}",
            "my interview at {org} is tomorrow",
            "just updated my resume for the {topic} job",
            "the {topic} today was so {adj}",
            "cant believe the {topic} got cancelled",
            "watching the {topic} with friends tonight",
            "traffic near the {place} is {adj} again",
            "anyone going to the {topic} in {city} ?",
            "so {adj} after that {topic}",
            "my commute to the {place} took forever",
            "that {topic} near the {place} though",
            "the {food} at the party was not good",
            "could really go for a nap right now",
        ),
        slots=_SHARED_SLOTS,
        seed=seed,
        seed_rule=("craving",),
    )


ALL_DATASETS = {
    "directions": directions,
    "cause-effect": cause_effect,
    "musicians": musicians,
    "profession": professions,
    "tweets": tweets,
}

# Paper's Table 1 rows, for EXPERIMENTS.md side-by-side reporting.
PAPER_TABLE1 = {
    "cause-effect": {"sentences": 10_700, "pct_positives": 12.2, "labeling": "Relations"},
    "musicians": {"sentences": 15_800, "pct_positives": 10.0, "labeling": "Entities"},
    "directions": {"sentences": 15_300, "pct_positives": 3.8, "labeling": "Intents"},
    "profession": {"sentences": 1_000_000, "pct_positives": 1.1, "labeling": "Entities"},
    "tweets": {"sentences": 2_130, "pct_positives": 11.4, "labeling": "Intents"},
}
